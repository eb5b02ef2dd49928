package cardinality

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// HLL is HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) with the
// 64-bit-hash engineering refinement from Heule et al. 2013 (no
// large-range correction needed) and linear counting for the small
// range. Registers are packed 6 bits each, the honest space cost the
// paper's space claims refer to: 2^p registers cost ⌈6·2^p/8⌉ bytes.
//
// Relative standard error ≈ 1.04/√m — the "very simple to implement,
// highly sophisticated to analyze" sketch that became the industry
// default for count-distinct (experiments E2, E8, E14).
type HLL struct {
	packed []uint64 // 6-bit registers packed little-endian into words
	p      uint8
	seed   uint64
}

// NewHLL creates a HyperLogLog sketch with 2^p registers, 4 ≤ p ≤ 18.
// p = 14 (16384 registers, 12 KiB) gives ~0.8% standard error and is
// the common production setting.
func NewHLL(p uint8, seed uint64) *HLL {
	if p < 4 || p > 18 {
		panic("cardinality: HLL precision must be in [4,18]")
	}
	m := 1 << p
	return &HLL{packed: make([]uint64, (m*6+63)/64), p: p, seed: seed}
}

// getRegister reads the 6-bit register at index i.
func (h *HLL) getRegister(i int) uint8 {
	bitPos := i * 6
	word, off := bitPos/64, uint(bitPos%64)
	v := h.packed[word] >> off
	if off > 58 {
		v |= h.packed[word+1] << (64 - off)
	}
	return uint8(v & 0x3f)
}

// setRegister writes the 6-bit register at index i.
func (h *HLL) setRegister(i int, val uint8) {
	bitPos := i * 6
	word, off := bitPos/64, uint(bitPos%64)
	h.packed[word] = h.packed[word]&^(0x3f<<off) | uint64(val&0x3f)<<off
	if off > 58 {
		rem := 64 - off
		h.packed[word+1] = h.packed[word+1]&^(0x3f>>rem) | uint64(val&0x3f)>>rem
	}
}

// Add inserts an item.
func (h *HLL) Add(item []byte) {
	h1, _ := hashx.Murmur3_128(item, h.seed)
	h.AddHash(h1)
}

// AddUint64 inserts an integer item without allocation.
func (h *HLL) AddUint64(v uint64) { h.AddHash(hashx.HashUint64(v, h.seed)) }

// AddString inserts a string item without copying or allocating.
func (h *HLL) AddString(s string) {
	h1, _ := hashx.Murmur3_128String(s, h.seed)
	h.AddHash(h1)
}

// ingestChunk is the chunk size of the two-phase batch loops: hash (or
// derive) a whole chunk first, then update from it, keeping the staging
// arrays on the stack while independent register accesses overlap.
const ingestChunk = 256

// AddBatch inserts many items with the two-phase pipelined loop: each
// fixed-size chunk is fully hashed first, then folded into the
// registers. State after AddBatch is byte-identical to calling Add on
// each item in order.
func (h *HLL) AddBatch(items [][]byte) {
	var hs [ingestChunk]uint64
	for len(items) > 0 {
		c := len(items)
		if c > ingestChunk {
			c = ingestChunk
		}
		for i, item := range items[:c] {
			hs[i], _ = hashx.Murmur3_128(item, h.seed)
		}
		h.AddHashBatch(hs[:c])
		items = items[c:]
	}
}

// AddHashBatch folds many pre-hashed values in, hash-once pipelines'
// batch entry point. The loop is two-phase over fixed chunks: phase 1
// derives every value's register index and rank (pure ALU — shift,
// count-leading-zeros), phase 2 streams the register max-updates, so
// consecutive packed-register accesses overlap. Register max is
// commutative, so state is byte-identical to calling AddHash per
// value.
func (h *HLL) AddHashBatch(hs []uint64) {
	var idxs [ingestChunk]int32
	var ranks [ingestChunk]uint8
	p := h.p
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, x := range chunk {
			idxs[i] = int32(x >> (64 - p))
			ranks[i] = uint8(bits.LeadingZeros64(x<<p|1<<(p-1))) + 1
		}
		for i := range chunk {
			idx := int(idxs[i])
			if ranks[i] > h.getRegister(idx) {
				h.setRegister(idx, ranks[i])
			}
		}
	}
}

// Update implements core.Updater.
func (h *HLL) Update(item []byte) { h.Add(item) }

// AddHash folds an already-hashed 64-bit value into the sketch. Sharded
// pipelines use it to hash once and update many sketches.
func (h *HLL) AddHash(x uint64) {
	idx := int(x >> (64 - h.p))
	w := x<<h.p | 1<<(h.p-1)
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > h.getRegister(idx) {
		h.setRegister(idx, rank)
	}
}

// alpha returns the HLL bias-correction constant α_m.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Estimate returns the cardinality estimate with small-range linear
// counting: when the raw estimate is below 5m/2 and empty registers
// remain, the linear-counting estimate m·ln(m/V) is more accurate and
// is used instead (the Heule et al. regime switch that E8 probes).
func (h *HLL) Estimate() float64 {
	m := 1 << h.p
	sum, zeros := h.harmonicSum()
	raw := alpha(m) * float64(m) * float64(m) / sum
	if raw <= 2.5*float64(m) && zeros > 0 {
		return linearCounting(m, zeros)
	}
	return raw
}

// RawEstimate returns the uncorrected harmonic-mean estimate, used by
// experiment E8 to demonstrate the small-range bias that linear
// counting (and HLL++'s bias tables) fix.
func (h *HLL) RawEstimate() float64 {
	m := 1 << h.p
	sum, _ := h.harmonicSum()
	return alpha(m) * float64(m) * float64(m) / sum
}

// linearCounting is the balls-in-bins estimator m·ln(m/V) where V is
// the number of empty registers.
func linearCounting(m, zeros int) float64 {
	return float64(m) * math.Log(float64(m)/float64(zeros))
}

// StandardError returns the theoretical relative standard error 1.04/√m.
func (h *HLL) StandardError() float64 {
	return 1.04 / math.Sqrt(float64(uint64(1)<<h.p))
}

// P returns the precision parameter.
func (h *HLL) P() uint8 { return h.p }

// Seed returns the hash seed. Wrappers that hash outside a lock (the
// concurrent sharded handle) need it to produce the same item→hash map
// as Add.
func (h *HLL) Seed() uint64 { return h.seed }

// M returns the register count 2^p.
func (h *HLL) M() int { return 1 << h.p }

// SizeBytes returns the packed register storage size.
func (h *HLL) SizeBytes() int { return len(h.packed) * 8 }

// compatible reports whether other shares p and seed, the condition for
// register-wise exchange.
func (h *HLL) compatible(other *HLL) error {
	if h.p != other.p || h.seed != other.seed {
		return fmt.Errorf("%w: HLL p=%d/seed=%d vs p=%d/seed=%d",
			core.ErrIncompatible, h.p, h.seed, other.p, other.seed)
	}
	return nil
}

// Merge takes the register-wise maximum — the lossless union that makes
// HLL "slice and dice" reach reporting possible (§3 of the paper):
// sketches per (campaign, demographic) cell can be combined along any
// dimension without double counting.
func (h *HLL) Merge(other *HLL) error {
	if err := h.compatible(other); err != nil {
		return err
	}
	mergeRegisters(h.packed, other.packed, 1<<h.p)
	return nil
}

// CopyFrom overwrites the registers with other's, the allocation-free
// counterpart of Clone for callers that keep one sketch as a reusable
// buffer. other must share p and seed.
func (h *HLL) CopyFrom(other *HLL) error {
	if err := h.compatible(other); err != nil {
		return err
	}
	copy(h.packed, other.packed)
	return nil
}

// Clone returns a deep copy.
func (h *HLL) Clone() *HLL {
	c := *h
	c.packed = append([]uint64(nil), h.packed...)
	return &c
}

// MarshalBinary serializes the sketch.
func (h *HLL) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagHLL, 1)
	w.U8(h.p)
	w.U64(h.seed)
	w.U64Slice(h.packed)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (h *HLL) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagHLL, 1)
	if err != nil {
		return err
	}
	p := r.U8()
	seed := r.U64()
	packed := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if p < 4 || p > 18 {
		return fmt.Errorf("%w: HLL precision %d", core.ErrCorrupt, p)
	}
	m := 1 << p
	if len(packed) != (m*6+63)/64 {
		return fmt.Errorf("%w: HLL register payload length %d", core.ErrCorrupt, len(packed))
	}
	h.p, h.seed, h.packed = p, seed, packed
	return nil
}
