package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's connection count: one per core of the
// 2-vCPU host the benchmark was sized on, so the generator never
// outnumbers the cores the program runs on.
const clients = 2

// warmup is run untimed between set-up and the timed phase, so connection
// pools, buffer pools, the GC pacer and the CPUs are in their steady state
// when timing starts.
const warmup = 2 * time.Second

// A run sets its workload up at least setupReps times and for at least
// setupTime in all, so a set-up of milliseconds is timed often enough for a
// steady median; setup_s is that median. recoverReps is how many times it
// recovers; recover_s is the median.
const (
	setupReps   = 5
	setupTime   = time.Second
	recoverReps = 9
)

// timeSetups times setup until both minimums are met. Every set-up but the
// last is handed to discard; the last is returned.
func timeSetups[T any](b *bench, setup func(r int) (T, error), discard func(r int, cur T) error) (T, []float64, error) {
	var secs []float64
	total := 0.0
	for r := 0; ; r++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		cur, err := setup(r)
		if err != nil {
			return cur, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[r]
		if r+1 >= setupReps && total >= setupTime.Seconds() {
			return cur, secs, nil
		}
		if err := discard(r, cur); err != nil {
			return cur, nil, err
		}
		b.hc.CloseIdleConnections()
	}
}

// An opCounter counts one operation type: attempts, and failures by cause.
type opCounter struct {
	attempted, status, transport, bound atomic.Int64
}

func (o *opCounter) failed() int64 { return o.status.Load() + o.transport.Load() + o.bound.Load() }

var opNames = []string{"create", "ingest", "query", "snapshot", "recover", "merged_check"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run: its arguments, counters, findings and metrics.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string

	tr *tracer // non-nil in traced runs
	hc *http.Client

	ops map[string]*opCounter

	mu       sync.Mutex
	maxRatio map[string]float64 // worst error ÷ stated bound, per family
	problems []string           // end checks that failed
	notes    []string           // metrics absent from this workload or reported at a lower percentile, and why
	metrics  map[string]metric
	order    []string
}

func newBench(workload string, seed uint64, seconds float64, traced bool, dir string) *bench {
	b := &bench{workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir,
		ops: map[string]*opCounter{}, maxRatio: map[string]float64{}, metrics: map[string]metric{}}
	for _, n := range opNames {
		b.ops[n] = &opCounter{}
	}
	if traced {
		b.tr = newTracer()
	}
	b.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
	}}
	return b
}

func (b *bench) set(name string, v float64, unit string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.metrics[name]; !ok {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setAbsent records a metric whose layer or family this workload does not
// exercise: it reads 0 and the report says why.
func (b *bench) setAbsent(name, unit, why string) {
	b.set(name, 0, unit)
	b.note("%s: %s", name, why)
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *bench) noteRatio(fam string, r float64) {
	b.mu.Lock()
	if r > b.maxRatio[fam] {
		b.maxRatio[fam] = r
	}
	b.mu.Unlock()
}

// conn is one client's state: a reusable response buffer and a counter
// that rotates its reads over the probe set.
type conn struct {
	b    *bench
	buf  bytes.Buffer
	pick int
}

// do sends one request and reads the whole reply. In traced phases it
// records a client span named spanName and hands its ID to the handler
// wrapper.
func (c *conn) do(method, url string, body []byte, spanName string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	t := c.b.tr
	id := t.newID()
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10)+"."+strconv.FormatInt(id, 10))
	}
	start := int64(0)
	if id != 0 {
		start = t.now()
	}
	resp, err := c.b.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if id != 0 {
		t.add(span{ID: id, Req: id, Name: spanName, Path: req.URL.Path, Start: start, End: t.now()})
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// A sketch is one created sketch as the load generator sees it.
type sketch struct {
	fam      family
	st       *stream
	tenant   string
	name     string
	base     string // .../sketch/{name}
	progress progress
}

func newSketch(url, tenant string, f family, st *stream, name string) *sketch {
	base := url + "/v1/sketch/" + name
	if tenant != "" {
		base = url + "/v1/t/" + tenant + "/sketch/" + name
	}
	return &sketch{fam: f, st: st, tenant: tenant, name: name, base: base}
}

// progress tracks which of a sketch's batches were sent and acknowledged.
// Batches go out in stream order, so every batch before the oldest one in
// flight is applied: the sketch holds at least lo and at most hi batches.
// A batch that failed stays "in flight" for good, since it may or may not
// have been applied.
type progress struct {
	mu       sync.Mutex
	next     int64
	inflight []int64
}

func (p *progress) begin() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.next
	p.next++
	p.inflight = append(p.inflight, j)
	return j
}

func (p *progress) done(j int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.inflight {
		if x == j {
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			return
		}
	}
}

func (p *progress) bounds() (lo, hi int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo = p.next
	for _, x := range p.inflight {
		lo = min(lo, x)
	}
	return lo, p.next
}

func (b *bench) create(c *conn, sk *sketch) error {
	b.ops["create"].attempted.Add(1)
	body, err := json.Marshal(sk.fam.create)
	if err != nil {
		return err
	}
	status, resp, err := c.do(http.MethodPost, sk.base, body, "client.create")
	if err != nil {
		b.ops["create"].transport.Add(1)
		return fmt.Errorf("create %s: %w", sk.name, err)
	}
	if status != http.StatusCreated {
		b.ops["create"].status.Add(1)
		return fmt.Errorf("create %s: status %d: %s", sk.name, status, resp)
	}
	return nil
}

// ingest posts the sketch's next batch and returns the latency in ms and
// the items acknowledged (0 on failure).
func (b *bench) ingest(c *conn, sk *sketch) (float64, int) {
	op := b.ops["ingest"]
	op.attempted.Add(1)
	j := sk.progress.begin()
	body := sk.st.bodies[j%int64(len(sk.st.bodies))]
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPost, sk.base+"/add", body, "client.add")
	lat := ms(time.Since(t0))
	switch {
	case err != nil:
		op.transport.Add(1)
		return lat, 0
	case status != http.StatusOK:
		op.status.Add(1)
		return lat, 0
	}
	var ack struct{ Added int }
	if json.Unmarshal(resp, &ack) != nil || ack.Added != sk.st.batch {
		op.status.Add(1)
		return lat, 0
	}
	sk.progress.done(j)
	return lat, ack.Added
}

// query sends one checked read and returns its latency in ms; ok is false
// when the sketch holds no answerable probe yet (nothing was sent).
func (b *bench) query(c *conn, sk *sketch) (lat float64, ok bool) {
	lo, _ := sk.progress.bounds()
	batch := int64(sk.st.batch)
	if lo == 0 {
		return 0, false
	}
	args, ok := sk.fam.pickArgs(sk.st, lo*batch, c.pick)
	if !ok {
		return 0, false
	}
	c.pick++
	op := b.ops["query"]
	op.attempted.Add(1)
	t0 := time.Now()
	status, resp, err := c.do(http.MethodGet, sk.base+"/query"+queryString(sk.fam.params(sk.st, args)), nil, "client.query")
	lat = ms(time.Since(t0))
	_, hi := sk.progress.bounds()
	switch {
	case err != nil:
		op.transport.Add(1)
		return lat, true
	case status != http.StatusOK:
		op.status.Add(1)
		return lat, true
	}
	var res map[string]any
	if err := json.Unmarshal(resp, &res); err != nil {
		op.status.Add(1)
		return lat, true
	}
	r, err := sk.fam.check(sk.st, args, res, lo*batch, hi*batch)
	if err != nil {
		b.problem("%v", err)
		op.bound.Add(1)
		return lat, true
	}
	b.noteRatio(sk.fam.name, r)
	if r > 1 {
		op.bound.Add(1)
		b.problem("%s/%s answer %v outside its bound (%.3g × bound) with %d..%d items applied",
			sk.tenant, sk.name, res, r, lo*batch, hi*batch)
	}
	return lat, true
}

// runClients runs fn on each of n clients and waits for all of them.
func runClients(b *bench, n int, fn func(c *conn, i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(&conn{b: b, pick: i}, i)
		}(i)
	}
	wg.Wait()
}

// listener is one loopback HTTP server.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed after stop
	}()
	return l, nil
}

// stop closes the listener, waits for in-flight requests and for the serve
// goroutine to end.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// Runtime counters, read through runtime/metrics.
type rtSample struct {
	allocs, allocBytes, gcCycles, gcCPU, totalCPU, heapLive float64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/live:bytes"}

// minus returns the counters' growth since s0; heapLive stays s's.
func (s rtSample) minus(s0 rtSample) rtSample {
	return rtSample{s.allocs - s0.allocs, s.allocBytes - s0.allocBytes, s.gcCycles - s0.gcCycles,
		s.gcCPU - s0.gcCPU, s.totalCPU - s0.totalCPU, s.heapLive}
}

// plus adds the growth d to s; heapLive becomes d's.
func (s rtSample) plus(d rtSample) rtSample {
	return rtSample{s.allocs + d.allocs, s.allocBytes + d.allocBytes, s.gcCycles + d.gcCycles,
		s.gcCPU + d.gcCPU, s.totalCPU + d.totalCPU, d.heapLive}
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return rtSample{v(0), v(1), v(2), v(3), v(4), v(5)}
}

// liveHeap returns the bytes live after two forced collections: the
// second frees what sync.Pools held at the first, so how many pooled
// buffers happened to be idle does not count.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().heapLive
}

// quiescedHeap is liveHeap once the program has had two group-commit
// intervals to drain its WAL queue, so queued batch copies do not count.
func quiescedHeap() float64 {
	time.Sleep(2 * durableOpts().FsyncInterval)
	return liveHeap()
}

// setLatency sets <op>_p50_ms and <op>_p99_ms: each percentile is taken
// within consecutive time windows of the phase and the median over windows
// is reported, so one stall moves the figure only as much as one window.
// Windows hold about windowSamples samples each, enough for ten beyond
// p99; where a window holds fewer, the highest percentile it supports is
// used and the report says so.
func (b *bench) setLatency(op string, sets [][]sample) {
	p50, _, _ := windowedPercentile(sets, 0.5)
	p99, q, w := windowedPercentile(sets, 0.99)
	if q != 0.99 {
		b.note("%s_p99_ms: windows support only p%g, reported instead", op, q*100)
	}
	fmt.Printf("%s latency: %d samples in %d windows\n", op, countSamples(sets), w)
	b.set(op+"_p50_ms", p50, "ms")
	b.set(op+"_p99_ms", p99, "ms")
}
