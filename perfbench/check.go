package main

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/server"
)

// A family is one sketch type as the workloads create it: the registry's
// default shape unless noted, because the defaults are what sketchd serves.
type family struct {
	name   string
	create server.CreateRequest
	values bool // ingests numbers (value stream) rather than keys
}

var families = map[string]family{
	"hll":          {name: "hll", create: server.CreateRequest{Type: "hll", P: 14}},
	"countmin":     {name: "countmin", create: server.CreateRequest{Type: "countmin"}},
	"kll":          {name: "kll", create: server.CreateRequest{Type: "kll"}, values: true},
	"blockedbloom": {name: "blockedbloom", create: server.CreateRequest{Type: "blockedbloom"}},
	"sfsketch":     {name: "sfsketch", create: server.CreateRequest{Type: "sfsketch"}},
}

// allFamilies fixes the order of per-family metrics.
var allFamilies = []string{"hll", "countmin", "kll", "blockedbloom", "sfsketch"}

// Stated bounds. Each check allows the error a family guarantees at a
// per-answer failure probability small enough that a correct program never
// trips it across the ~10^5 answers a benchmark campaign checks.
const (
	hllP       = 14
	hllSigmas  = 5 // HLL: |est-n| <= 5 · 1.04/sqrt(2^p) · n
	cmWidth    = 2048
	cmDepth    = 4
	sfWidth    = 512 // the slim stage answers, so its width sets the bound
	sfDepth    = 4
	kllK       = 200
	failProb   = 1e-6
	bloomRatio = 1e9 // Bloom allows no false negative; one is reported as this ratio
)

// kllBound is the KLL rank-error bound at failProb. quantile.KLL.Eps states
// 2.3/k, which behaves as a 99% figure (about 0.4% of answers land just
// above it); KLL's error grows as sqrt(log(1/δ)), so at δ = failProb the
// bound is Eps·sqrt(ln(1/failProb)/ln(100)) ≈ 1.73·Eps.
var kllBound = 2.3 / kllK * math.Sqrt(math.Log(1/failProb)/math.Log(100))

// cmBound is the Count-Min overcount bound after n items: each row
// overcounts by at most k·n/w with probability 1-1/k (Markov), rows are
// independent, so the minimum exceeds it with probability k^-d = failProb.
func cmBound(n float64, width, depth int) float64 {
	return math.Pow(failProb, -1/float64(depth)) * n / float64(width)
}

// queryArgs names one checked read: a probe key for point-query families, a
// rank for kll.
type queryArgs struct {
	probe int
	q     float64
}

var kllRanks = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

// params renders a read's URL query for the family.
func (f family) params(st *stream, a queryArgs) url.Values {
	switch f.name {
	case "countmin", "sfsketch", "blockedbloom":
		return url.Values{"item": {string(st.probes[a.probe].key)}}
	case "kll":
		return url.Values{"q": {strconv.FormatFloat(a.q, 'g', -1, 64)}}
	}
	return nil
}

// queryString renders params as a URL suffix.
func queryString(v url.Values) string {
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// pickArgs chooses the read for a sketch that has applied at least lo
// items: a Bloom probe must already be in the sketch, or a negative answer
// would be right.
func (f family) pickArgs(st *stream, lo int64, pick int) (queryArgs, bool) {
	switch f.name {
	case "kll":
		return queryArgs{q: kllRanks[pick%len(kllRanks)]}, true
	case "hll":
		return queryArgs{}, true
	case "blockedbloom":
		known := len(st.probes)
		if lo < st.cycle() {
			known = 0
			for known < len(st.probes) && int64(st.probes[known].pos[0]) < lo {
				known++
			}
		}
		if known == 0 {
			return queryArgs{}, false
		}
		return queryArgs{probe: pick % known}, true
	}
	return queryArgs{probe: pick % len(st.probes)}, true
}

// check returns the answer's error as a share of the family's stated bound
// (at most 1 passes) for a sketch that has applied at least lo and at most
// hi items of its stream.
func (f family) check(st *stream, a queryArgs, res map[string]any, lo, hi int64) (float64, error) {
	num := func(key string) (float64, error) {
		v, ok := res[key].(float64)
		if !ok {
			return 0, fmt.Errorf("%s answer has no numeric %q: %v", f.name, key, res)
		}
		return v, nil
	}
	switch f.name {
	case "hll":
		est, err := num("estimate")
		if err != nil {
			return 0, err
		}
		tol := hllSigmas * 1.04 / math.Sqrt(float64(int(1)<<hllP))
		dlo, dhi := st.distinctAt(lo), st.distinctAt(hi)
		switch {
		case est < dlo:
			return (dlo - est) / dlo / tol, nil
		case est > dhi:
			return (est - dhi) / dhi / tol, nil
		}
		return 0, nil
	case "countmin", "sfsketch":
		est, err := num("estimate")
		if err != nil {
			return 0, err
		}
		p := &st.probes[a.probe]
		flo, fhi := st.freqAt(p, lo), st.freqAt(p, hi)
		if est < flo {
			return math.Inf(1), nil // Count-Min never undercounts
		}
		w, d := cmWidth, cmDepth
		if f.name == "sfsketch" {
			w, d = sfWidth, sfDepth
		}
		return math.Max(0, est-fhi) / cmBound(float64(hi), w, d), nil
	case "kll":
		v, err := num("quantile")
		if err != nil {
			return 0, err
		}
		// The sketch holds a set S with prefix(lo) ⊆ S ⊆ prefix(hi).
		ltLo, leLo := st.countAt(v, lo)
		_, leHi := st.countAt(v, hi)
		rMin := ltLo / float64(hi)
		rMax := math.Min(leHi, leLo+float64(hi-lo)) / float64(lo)
		return math.Max(0, math.Max(rMin-a.q, a.q-rMax)) / kllBound, nil
	case "blockedbloom":
		in, ok := res["contains"].(bool)
		if !ok {
			return 0, fmt.Errorf("blockedbloom answer has no contains: %v", res)
		}
		if !in {
			return math.Inf(1), nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("no check for family %q", f.name)
}
