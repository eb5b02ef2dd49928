package cardinality

// Word-parallel kernels over the packed 6-bit register layout.
//
// Register i lives at bits [6i, 6i+6) of the little-endian word array,
// so 32 registers fill exactly 3 words (192 bits) and the pattern
// repeats every group:
//
//	word 0: registers  0..9  at bits 0..59,  register 10 low 4 bits at 60..63
//	word 1: register  10 high 2 bits at 0..1, registers 11..20 at 2..61,
//	        register  21 low 2 bits at 62..63
//	word 2: register  21 high 4 bits at 0..3, registers 22..31 at 4..63
//
// Each word therefore carries ten whole lanes (shifted by 0, 2 or 4
// bits) plus the two registers that straddle word boundaries. Every
// m = 2^p ≥ 32 is a whole number of groups; p = 4 (m = 16, two words)
// is the only partial group and is handled through a zero-padded copy.

const (
	groupRegs  = 32 // registers per group
	groupWords = 3  // words per group: 32·6 = 3·64 bits

	laneOnes = 0x0041041041041041 // bit 0 of each of the ten lanes at bits 0..59
	laneHigh = laneOnes << 5      // bit 5 (the high bit) of each lane
	laneMask = 1<<60 - 1          // all ten lanes
)

// maxLanes returns the lane-wise maximum of ten 6-bit lanes packed at
// bits 0..59 of a and b (bits 60..63 must be zero). Each lane's high
// bit serves as the guard: forcing it on in a before subtracting b's
// low five bits keeps every lane's borrow inside the lane, leaving the
// high bit set exactly where a's low bits ≥ b's. Combining that with
// the high bits themselves gives a ≥ b per lane, which is widened into
// a full-lane select mask.
func maxLanes(a, b uint64) uint64 {
	lowGE := (a | laneHigh) - (b &^ laneHigh)
	ge := (a&^b | ^(a^b)&lowGE) & laneHigh
	sel := ge - ge>>5 | ge
	return a&sel | b&^sel
}

// mergeGroups folds src into dst by register-wise max, one 3-word
// group at a time; both lengths are the same multiple of 3.
func mergeGroups(dst, src []uint64) {
	for len(dst) >= groupWords && len(src) >= groupWords {
		a0, a1, a2 := dst[0], dst[1], dst[2]
		b0, b1, b2 := src[0], src[1], src[2]
		r10 := max(a0>>60|a1&3<<4, b0>>60|b1&3<<4)
		r21 := max(a1>>62|a2&15<<2, b1>>62|b2&15<<2)
		dst[0] = maxLanes(a0&laneMask, b0&laneMask) | r10<<60
		dst[1] = r10>>4 | maxLanes(a1>>2&laneMask, b1>>2&laneMask)<<2 | r21<<62
		dst[2] = r21>>2 | maxLanes(a2>>4, b2>>4)<<4
		dst, src = dst[groupWords:], src[groupWords:]
	}
}

// mergeRegisters sets dst's m registers to the register-wise max of
// dst and src. Bits past register m-1 (only p = 4 has any) keep dst's
// value, as a register-at-a-time merge would leave them.
func mergeRegisters(dst, src []uint64, m int) {
	full := m / groupRegs * groupWords
	mergeGroups(dst[:full], src[:full])
	if m%groupRegs == 0 {
		return
	}
	a, valid := tailGroup(dst[full:], m%groupRegs)
	b, _ := tailGroup(src[full:], m%groupRegs)
	mergeGroups(a[:], b[:])
	for i := full; i < len(dst); i++ {
		v := valid[i-full]
		dst[i] = dst[i]&^v | a[i-full]&v
	}
}

// tailGroup copies a partial group of n < 32 registers into a
// zero-padded group, masking out bits past register n-1, and returns
// the per-word mask of the bits those registers occupy.
func tailGroup(words []uint64, n int) (g, valid [groupWords]uint64) {
	bits := 6 * n
	for i := range words {
		switch {
		case bits >= 64:
			valid[i] = ^uint64(0)
		case bits > 0:
			valid[i] = 1<<bits - 1
		}
		bits -= 64
		g[i] = words[i] & valid[i]
	}
	return g, valid
}

// invPow2[r] = 2^-r, exactly the value 1/float64(1<<r) for every 6-bit
// register value.
var invPow2 = func() (t [64]float64) {
	for r := range t {
		t[r] = 1 / float64(uint64(1)<<r)
	}
	return t
}()

// harmonicSum returns Σ 2^-r over all registers together with the
// number of zero registers. Terms are added in register-index order, so
// the float result is bit-identical to a one-register-at-a-time loop.
func (h *HLL) harmonicSum() (sum float64, zeros int) {
	m := 1 << h.p
	full := m / groupRegs * groupWords
	sum, zeros = sumGroups(h.packed[:full])
	if n := m % groupRegs; n > 0 {
		g, _ := tailGroup(h.packed[full:], n)
		var rs [groupRegs]uint8
		unpackGroup(&g, &rs)
		for _, r8 := range rs[:n] {
			r := uint64(r8 & 63)
			sum += invPow2[r]
			zeros += int((r - 1) >> 63)
		}
	}
	return sum, zeros
}

// sumGroups returns the harmonic sum and zero count over whole groups,
// decoding each word's lanes in place.
func sumGroups(words []uint64) (sum float64, zeros int) {
	for len(words) >= groupWords {
		w0, w1, w2 := words[0], words[1], words[2]
		for sh := 0; sh < 60; sh += 6 {
			r := w0 >> sh & 63
			sum += invPow2[r]
			zeros += int((r - 1) >> 63)
		}
		r := (w0>>60 | w1<<4) & 63
		sum += invPow2[r]
		zeros += int((r - 1) >> 63)
		for sh := 2; sh < 62; sh += 6 {
			r := w1 >> sh & 63
			sum += invPow2[r]
			zeros += int((r - 1) >> 63)
		}
		r = (w1>>62 | w2<<2) & 63
		sum += invPow2[r]
		zeros += int((r - 1) >> 63)
		for sh := 4; sh < 64; sh += 6 {
			r := w2 >> sh & 63
			sum += invPow2[r]
			zeros += int((r - 1) >> 63)
		}
		words = words[groupWords:]
	}
	return sum, zeros
}

// unpackGroup decodes one group's 32 registers in index order.
func unpackGroup(g *[groupWords]uint64, rs *[groupRegs]uint8) {
	w0, w1, w2 := g[0], g[1], g[2]
	for k := 0; k < 10; k++ {
		rs[k] = uint8(w0>>(6*k)) & 63
		rs[11+k] = uint8(w1>>(6*k+2)) & 63
		rs[22+k] = uint8(w2>>(6*k+4)) & 63
	}
	rs[10] = uint8(w0>>60|w1<<4) & 63
	rs[21] = uint8(w1>>62|w2<<2) & 63
}
