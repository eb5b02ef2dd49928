package cardinality

import (
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
)

// Register-at-a-time reference loops: the definitions the word-parallel
// kernels must reproduce bit for bit.

func refMerge(h, other *HLL) {
	for i := 0; i < h.M(); i++ {
		if r := other.getRegister(i); r > h.getRegister(i) {
			h.setRegister(i, r)
		}
	}
}

func refHarmonic(h *HLL) (sum float64, zeros int) {
	for i := 0; i < h.M(); i++ {
		r := h.getRegister(i)
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	return sum, zeros
}

func refEstimate(h *HLL) float64 {
	m := h.M()
	sum, zeros := refHarmonic(h)
	raw := alpha(m) * float64(m) * float64(m) / sum
	if raw <= 2.5*float64(m) && zeros > 0 {
		return linearCounting(m, zeros)
	}
	return raw
}

func refRawEstimate(h *HLL) float64 {
	m := h.M()
	sum, _ := refHarmonic(h)
	return alpha(m) * float64(m) * float64(m) / sum
}

// randomRegisters fills every register from the full 6-bit range, the
// values a decoded envelope may carry, with a share of zeros so the
// linear-counting branch and the raw branch both occur.
func randomRegisters(h *HLL, rng *randx.RNG, zeroShare float64) {
	for i := 0; i < h.M(); i++ {
		v := uint8(rng.Uint64() & 63)
		if rng.Float64() < zeroShare {
			v = 0
		}
		h.setRegister(i, v)
	}
}

func TestHLLKernelsMatchReferenceLoops(t *testing.T) {
	rng := randx.New(7)
	for p := uint8(4); p <= 18; p++ {
		for _, zeroShare := range []float64{0, 0.3, 0.97} {
			a, b := NewHLL(p, 1), NewHLL(p, 1)
			randomRegisters(a, rng, zeroShare)
			randomRegisters(b, rng, zeroShare)
			if got, want := a.Estimate(), refEstimate(a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%d zeros=%.2f: Estimate %v, reference %v", p, zeroShare, got, want)
			}
			if got, want := a.RawEstimate(), refRawEstimate(a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%d zeros=%.2f: RawEstimate %v, reference %v", p, zeroShare, got, want)
			}
			ref := a.Clone()
			refMerge(ref, b)
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.packed, ref.packed) {
				t.Fatalf("p=%d zeros=%.2f: Merge registers differ from the reference loop", p, zeroShare)
			}
		}
	}
}

func TestHLLMergeEveryLanePair(t *testing.T) {
	// Every (dst, src) register-value pair in every lane position of a
	// group, including the two word-straddling registers.
	for pos := 0; pos < groupRegs; pos++ {
		for x := uint8(0); x < 64; x++ {
			for y := uint8(0); y < 64; y++ {
				a, b := NewHLL(5, 1), NewHLL(5, 1)
				a.setRegister(pos, x)
				a.setRegister((pos+1)%groupRegs, 63-x)
				b.setRegister(pos, y)
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				if got := a.getRegister(pos); got != max(x, y) {
					t.Fatalf("register %d: max(%d,%d) = %d", pos, x, y, got)
				}
				if got := a.getRegister((pos + 1) % groupRegs); got != 63-x {
					t.Fatalf("register %d: neighbour changed to %d, want %d", pos, got, 63-x)
				}
			}
		}
	}
}

func TestHLLMergeKeepsBitsPastLastRegister(t *testing.T) {
	// At p=4 the last word is only half used. Decoded envelopes may
	// carry anything there; merge must keep the destination's bits and
	// never import the source's, as the register loop did.
	a, b := NewHLL(4, 1), NewHLL(4, 1)
	rng := randx.New(3)
	randomRegisters(a, rng, 0.2)
	randomRegisters(b, rng, 0.2)
	a.packed[1] |= 0xdead_beef << 32
	b.packed[1] |= 0x1234_5678 << 32
	ref := a.Clone()
	refMerge(ref, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.packed[1] != ref.packed[1] || a.packed[0] != ref.packed[0] {
		t.Fatalf("p=4 merge words %x, reference %x", a.packed, ref.packed)
	}
	if got, want := a.Estimate(), refEstimate(a); got != want {
		t.Fatalf("p=4 Estimate with high garbage %v, reference %v", got, want)
	}
}

func TestHLLCopyFrom(t *testing.T) {
	a, b := NewHLL(10, 1), NewHLL(10, 1)
	for i := 0; i < 5000; i++ {
		b.AddUint64(uint64(i))
	}
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != b.Estimate() || !slices.Equal(a.packed, b.packed) {
		t.Fatal("CopyFrom did not reproduce the source registers")
	}
	if err := a.CopyFrom(NewHLL(10, 2)); err == nil {
		t.Fatal("CopyFrom accepted a different seed")
	}
}
