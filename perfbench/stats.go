package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is noise, so the report falls back to the
// highest one the sample count supports.
const minTail = 10

// percentile returns the p-quantile (nearest rank) of sorted and whether at
// least minTail samples lie strictly beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-(idx+1) >= minTail
}

// reportPercentiles are the percentiles a high-percentile metric may fall
// back to, highest first.
var reportPercentiles = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// highPercentile returns the p-quantile of sorted when it has minTail
// samples beyond it, and otherwise the highest percentile below p that has.
// The second result is the percentile actually reported.
func highPercentile(sorted []float64, p float64) (float64, float64) {
	for _, q := range reportPercentiles {
		if q > p {
			continue
		}
		if v, ok := percentile(sorted, q); ok {
			return v, q
		}
	}
	v, _ := percentile(sorted, 0.5)
	return v, 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// schedule is an open-loop sender's timetable: request i is due at
// start + i·interval whatever happened to the requests before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// clock abstracts time so the open-loop accounting can be tested with a
// handler that stalls by a known amount.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends requests on sched until end, one at a time on one
// connection. op sends request i and returns how long the request itself
// took, in ms; whatever op does after the reply (checking the answer) is
// the generator's time. A request is ready at its due time or when the
// previous reply arrived, whichever is later. Its latency is the wait from
// its due time until it was ready plus the request itself, so a stall is
// charged to every request that queued behind it. late is how long each
// send went out after it was ready: the generator's own delay (checking,
// timer overshoot), kept out of the latency and reported on its own.
func openLoop(clk clock, sched schedule, end time.Time, op func(i int) float64) (lat, late []float64) {
	var prevEnd time.Time
	for i := 0; ; i++ {
		due := sched.due(i)
		if !due.Before(end) {
			return lat, late
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		sent := clk.Now()
		ready := due
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		late = append(late, ms(sent.Sub(ready)))
		l := op(i)
		prevEnd = sent.Add(time.Duration(l * 1e6))
		lat = append(lat, ms(ready.Sub(due))+l)
	}
}

// interval is a closed time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent not covered by any child. Children
// may nest, overlap each other, or stick out of the parent; only the union
// of their overlap with the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo, c.hi = max(c.lo, parent.lo), min(c.hi, parent.hi)
		if c.hi > c.lo {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	covered, end := int64(0), parent.lo
	for _, c := range cs {
		if c.hi <= end {
			continue
		}
		covered += c.hi - max(c.lo, end)
		end = c.hi
	}
	return parent.hi - parent.lo - covered
}

// A sample is one completed operation.
type sample struct {
	at    float64 // completion time, seconds since the phase started
	ms    float64 // latency
	items int     // items acknowledged (ingest)
}

// record adds open-loop latencies to l with their completion times;
// items, when given, holds the items each request had acknowledged.
func (s schedule) record(l *sampleLog, lat []float64, items []int) {
	for i, ms := range lat {
		x := sample{at: (time.Duration(i) * s.interval).Seconds() + ms/1e3, ms: ms}
		if items != nil {
			x.items = items[i]
		}
		l.add(x)
	}
}

// Window sizing: percentiles come from windows of about windowSamples
// samples (ten beyond p99), at most maxWindows per phase.
const (
	windowSamples = 1000
	maxWindows    = 20
)

func countSamples(sets [][]sample) int {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	return n
}

// byWindow pools the samples and cuts them, in completion order, into k
// windows of equal count.
func byWindow(sets [][]sample, k int) [][]sample {
	var all []sample
	for _, s := range sets {
		all = append(all, s...)
	}
	slices.SortFunc(all, func(a, b sample) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	k = max(1, min(k, len(all)))
	out := make([][]sample, k)
	for i := range out {
		out[i] = all[i*len(all)/k : (i+1)*len(all)/k]
	}
	return out
}

// windowedPercentile returns the median over windows of each window's
// p-quantile latency, the percentile actually used (lower than p where a
// window lacks ten samples beyond p), and the window count.
func windowedPercentile(sets [][]sample, p float64) (float64, float64, int) {
	k := min(maxWindows, countSamples(sets)/windowSamples)
	ws := byWindow(sets, k)
	var vals []float64
	used := p
	for _, w := range ws {
		lat := make([]float64, len(w))
		for i, s := range w {
			lat[i] = s.ms
		}
		slices.Sort(lat)
		v, q := highPercentile(lat, p)
		used = min(used, q)
		vals = append(vals, v)
	}
	return median(vals), used, len(ws)
}

// windowedRate is the median over maxWindows equal time windows of the
// items acknowledged per second.
func windowedRate(sets [][]sample, wall float64) float64 {
	items := make([]float64, maxWindows)
	for _, set := range sets {
		for _, s := range set {
			w := min(maxWindows-1, int(s.at/wall*maxWindows))
			items[w] += float64(s.items)
		}
	}
	for i := range items {
		items[i] /= wall / maxWindows
	}
	return median(items)
}

// pooledMedian is the median latency over all samples.
func pooledMedian(sets [][]sample) float64 {
	var lat []float64
	for _, s := range sets {
		for _, x := range s {
			lat = append(lat, x.ms)
		}
	}
	return median(lat)
}
