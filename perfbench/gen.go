package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
)

// A stream is one generated input: a cycle of items, cut into batch bodies,
// that a sketch receives over and over in order. Because every sketch sees a
// prefix of the repeated cycle, the exact answer to any probe after n items
// follows from the cycle alone; the oracle never has to remember the stream.
type stream struct {
	batch  int      // lines per batch
	bodies [][]byte // the cycle cut into batch bodies, newline-terminated lines

	// Key streams (hll, countmin, blockedbloom, sfsketch).
	ranks    []uint32 // Zipf rank of each cycle position
	distinct []int32  // distinct keys in cycle[:i+1]
	probes   []probe  // bounded probe set for point queries

	// Value streams (kll).
	values []float64 // cycle values as the server parses them
	sorted []float64 // values, sorted
}

// probe is one key of the bounded probe set with every cycle position at
// which it occurs, so its exact frequency after n items is a binary search.
type probe struct {
	key []byte
	pos []int32 // ascending; pos[0] is the first occurrence
}

const (
	zipfS     = 1.1     // key skew
	zipfRange = 1 << 20 // key universe
	numProbes = 64
)

// mix64 is the splitmix64 finalizer, a bijection: distinct ranks always get
// distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func keyText(dst []byte, rank uint32, salt uint64) []byte {
	h := mix64(uint64(rank) ^ salt)
	dst = append(dst, 'u')
	const hex = "0123456789abcdef"
	for s := 60; s >= 0; s -= 4 {
		dst = append(dst, hex[(h>>uint(s))&15])
	}
	return dst
}

// newKeyStream draws a cycle of batches·batch Zipf-skewed keys.
func newKeyStream(seed uint64, batches, batch int) *stream {
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	z := rand.NewZipf(r, zipfS, 1, zipfRange-1)
	n := batches * batch
	st := &stream{batch: batch, ranks: make([]uint32, n), distinct: make([]int32, n)}
	seen := make(map[uint32]bool)
	for i := range st.ranks {
		rk := uint32(z.Uint64())
		st.ranks[i] = rk
		seen[rk] = true
		st.distinct[i] = int32(len(seen))
	}
	salt := mix64(seed)
	for b := 0; b < batches; b++ {
		body := make([]byte, 0, batch*18)
		for _, rk := range st.ranks[b*batch : (b+1)*batch] {
			body = append(keyText(body, rk, salt), '\n')
		}
		st.bodies = append(st.bodies, body)
	}
	// Probes: half drawn by position (heavy keys dominate), half by
	// distinct rank (light keys), so both ends of the skew are checked.
	ranks := make([]uint32, 0, len(seen))
	for rk := range seen {
		ranks = append(ranks, rk)
	}
	slices.Sort(ranks)
	chosen := make(map[uint32]bool)
	for len(chosen) < min(numProbes, len(ranks)) {
		var rk uint32
		if len(chosen)%2 == 0 {
			rk = st.ranks[r.IntN(n)]
		} else {
			rk = ranks[r.IntN(len(ranks))]
		}
		chosen[rk] = true
	}
	for rk := range chosen {
		p := probe{key: keyText(nil, rk, salt)}
		for i, x := range st.ranks {
			if x == rk {
				p.pos = append(p.pos, int32(i))
			}
		}
		st.probes = append(st.probes, p)
	}
	slices.SortFunc(st.probes, func(a, b probe) int { return int(a.pos[0]) - int(b.pos[0]) })
	return st
}

// newValueStream draws a cycle of log-normal values, formatted as the lines
// a client would send and parsed back so the oracle holds exactly what the
// server ingests.
func newValueStream(seed uint64, batches, batch int) *stream {
	r := rand.New(rand.NewPCG(seed, 0x76616c73))
	n := batches * batch
	st := &stream{batch: batch, values: make([]float64, n)}
	for b := 0; b < batches; b++ {
		body := make([]byte, 0, batch*12)
		for i := b * batch; i < (b+1)*batch; i++ {
			start := len(body)
			body = strconv.AppendFloat(body, 100*math.Exp(r.NormFloat64()), 'g', 8, 64)
			v, _ := strconv.ParseFloat(string(body[start:]), 64)
			st.values[i] = v
			body = append(body, '\n')
		}
		st.bodies = append(st.bodies, body)
	}
	st.sorted = slices.Clone(st.values)
	slices.Sort(st.sorted)
	return st
}

func (st *stream) cycle() int64 { return int64(len(st.bodies) * st.batch) }

// distinctAt is the exact distinct-key count after n items.
func (st *stream) distinctAt(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(st.distinct[min(n, st.cycle())-1])
}

// freqAt is the exact frequency of p after n items.
func (st *stream) freqAt(p *probe, n int64) float64 {
	c := st.cycle()
	part := int32(n % c)
	k := sort.Search(len(p.pos), func(i int) bool { return p.pos[i] >= part })
	return float64((n/c)*int64(len(p.pos)) + int64(k))
}

// countAt returns how many of the first n values are < v and <= v.
func (st *stream) countAt(v float64, n int64) (lt, le float64) {
	c := st.cycle()
	full := n / c
	lt = float64(full) * float64(sort.SearchFloat64s(st.sorted, v))
	le = float64(full) * float64(sort.Search(len(st.sorted), func(i int) bool { return st.sorted[i] > v }))
	for _, x := range st.values[:n%c] {
		if x < v {
			lt++
		}
		if x <= v {
			le++
		}
	}
	return lt, le
}
