package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples above 990
		{999, 0.99, 990, false}, // nine above
		{100, 0.5, 50, true},
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	// With 500 samples p99 has five beyond it and p95 twenty-five: the
	// report falls back to p95.
	if v, q := highPercentile(ramp(500), 0.99); q != 0.95 || v != 475 {
		t.Errorf("highPercentile(500, 0.99) = %v at p%g; want 475 at p95", v, q*100)
	}
	if v, q := highPercentile(ramp(5000), 0.99); q != 0.99 || v != 4950 {
		t.Errorf("highPercentile(5000, 0.99) = %v at p%g; want 4950 at p99", v, q*100)
	}
}

// fakeClock advances only when the code under test sleeps or an operation
// takes time. A sleep wakes overshoot late.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Sleep(d time.Duration)   { c.t = c.t.Add(d + c.overshoot) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	sched := schedule{start: clk.t, interval: 10 * time.Millisecond}
	end := sched.due(20)
	// Every request takes 1 ms except request 2, whose reply takes 55 ms
	// and whose answer then takes the generator 2 ms to check.
	lat, late := openLoop(clk, sched, end, func(i int) float64 {
		if i == 2 {
			clk.advance(57 * time.Millisecond)
			return 55
		}
		clk.advance(time.Millisecond)
		return 1
	})
	if len(lat) != 20 {
		t.Fatalf("sent %d requests, want 20 (one per due time before end)", len(lat))
	}
	// Request 2 was due at 20 ms and answered at 75 ms. Requests 3..8 were
	// due at 30..80 ms and each was ready when the reply before it came
	// (75, 78, 79, .. 82 ms): each latency counts the wait from its due
	// time to then. The 2 ms request 3 spent waiting on the generator's
	// check is in late, not in its latency.
	want := []float64{1, 1, 55, 46, 39, 30, 21, 12, 3, 1}
	for i, w := range want {
		if math.Abs(lat[i]-w) > 1e-9 {
			t.Errorf("latency[%d] = %v ms, want %v", i, lat[i], w)
		}
	}
	// Only the check delayed a send that could have gone: request 3 could
	// leave at 75 ms, when request 2 was answered, and left at 77 ms.
	wantLate := []float64{0, 0, 0, 2, 0, 0, 0, 0, 0, 0}
	for i, w := range wantLate {
		if math.Abs(late[i]-w) > 1e-9 {
			t.Errorf("late[%d] = %v ms, want %v", i, late[i], w)
		}
	}
}

func TestOpenLoopKeepsGeneratorDelayOutOfLatency(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), overshoot: 3 * time.Millisecond}
	sched := schedule{start: clk.t, interval: 10 * time.Millisecond}
	lat, late := openLoop(clk, sched, sched.due(10), func(int) float64 {
		clk.advance(time.Millisecond)
		return 1
	})
	// Every send but the first wakes 3 ms after its due time; the program
	// answered each in 1 ms and nothing queued.
	for i := range lat {
		wantLate := 3.0
		if i == 0 {
			wantLate = 0
		}
		if math.Abs(lat[i]-1) > 1e-9 || math.Abs(late[i]-wantLate) > 1e-9 {
			t.Errorf("request %d: latency %v ms, late %v ms; want 1 and %v", i, lat[i], late[i], wantLate)
		}
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"nested child inside child", []interval{{10, 60}, {20, 30}}, 50},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"overlap given out of order", []interval{{30, 60}, {10, 40}, {55, 70}}, 40},
		{"sticking out of the parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside the parent", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering the parent", []interval{{-1, 101}, {40, 50}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAttributeByPathAndContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "cluster.handler.query", Path: "/v1/sketch/hll/query", Start: 0, End: 100},
		{ID: 2, Req: 2, Name: "cluster.handler.add", Path: "/v1/sketch/hll/add", Start: 5, End: 100},
		{ID: 3, Req: 3, Name: "cluster.handler.query", Path: "/v1/sketch/kll/query", Start: 10, End: 90},
		{ID: 4, Req: 4, Name: "cluster.shard_call", Path: "/v1/sketch/hll/snapshot", Start: 20, End: 40},
		{ID: 5, Req: 5, Name: "cluster.shard_call", Path: "/v1/sketch/hll/add", Start: 20, End: 40},
		{ID: 6, Req: 6, Name: "cluster.shard_call", Path: "/v1/sketch/kll/snapshot", Start: 20, End: 95},
	}
	attribute(spans)
	for _, tc := range []struct {
		id, parent int64
	}{{4, 1}, {5, 2}, {6, 0}} {
		s := spans[tc.id-1]
		if s.Parent != tc.parent || s.Attributed != (tc.parent != 0) {
			t.Errorf("span %d: parent %d (attributed %v), want %d", tc.id, s.Parent, s.Attributed, tc.parent)
		}
	}
	st := aggregate(spans)
	// The hll query loses its 20 ns shard call; the kll query keeps all 80 ns.
	if got, _ := st.meanUS("cluster.handler.query", true); got != 0.08 {
		t.Errorf("query handler mean self time = %v us, want 0.08", got)
	}
}

func TestOracleCountsRepeatedCycle(t *testing.T) {
	st := newKeyStream(7, 4, 50)
	c := st.cycle()
	if got := st.distinctAt(3 * c); got != st.distinctAt(c) {
		t.Errorf("distinct after three cycles = %v, want one cycle's %v", got, st.distinctAt(c))
	}
	p := &st.probes[0]
	if got, want := st.freqAt(p, 2*c+int64(p.pos[0])+1), float64(2*len(p.pos)+1); got != want {
		t.Errorf("freq two cycles and one occurrence in = %v, want %v", got, want)
	}
	vs := newValueStream(7, 2, 10)
	v := vs.sorted[len(vs.sorted)/2]
	lt, le := vs.countAt(v, 2*vs.cycle())
	if lt != 2*float64(len(vs.sorted)/2) || le != lt+2 {
		t.Errorf("countAt(median, two cycles) = %v, %v", lt, le)
	}
}
