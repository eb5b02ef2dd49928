package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// clusterSpec shapes cluster_query: in-memory shards behind one
// coordinator, open-loop global queries beside an open-loop ingest stream.
type clusterSpec struct {
	shards       int
	fams         []string
	batch        int
	cycleBatches int
	prefill      int     // batches per sketch during set-up
	queryRate    float64 // global queries per second, round-robin over the sketches
	ingestRate   float64 // ingest POSTs per second, round-robin over the sketches
}

// The rates keep the cluster well under capacity: a global query takes
// about 2.5 ms at p50, so 100 queries/s keep the query connection a quarter
// busy (a closed loop reaches 300-400/s), and 99 POSTs/s is 99k items/s
// against the millions a shard absorbs. The rates differ so that the
// offset between a query and the POST nearest it sweeps through every
// value once a second: at equal rates the two streams would stay locked at
// one offset for the whole phase, and how much a query waits behind the
// POST beside it would be set by that offset rather than by the program.
var clusterQuery = clusterSpec{
	shards: 3, fams: []string{"hll", "countmin", "kll", "sfsketch"},
	batch: 1000, cycleBatches: 64, prefill: 1000, queryRate: 100, ingestRate: 99,
}

type clusterRun struct {
	shardLs []*listener
	coord   *cluster.Coordinator
	coordL  *listener
	sks     []*sketch
}

// shardHTTPTransport mirrors the coordinator's default shard transport so a
// traced run changes only the RoundTripper wrapped around it.
func shardHTTPTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 15 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
}

func (b *bench) setupCluster(sp clusterSpec, keys, vals *stream) (*clusterRun, error) {
	cr := &clusterRun{}
	var urls []string
	for i := 0; i < sp.shards; i++ {
		srv := server.New()
		l, err := listen(traceHandler(b.tr, "server", srv.Handler()))
		if err != nil {
			cr.stop()
			return nil, err
		}
		cr.shardLs = append(cr.shardLs, l)
		urls = append(urls, l.url)
	}
	var opts cluster.Options
	if b.tr != nil {
		opts.HTTPClient = &http.Client{Timeout: 60 * time.Second, Transport: &shardTransport{t: b.tr, base: shardHTTPTransport()}}
	}
	coord, err := cluster.NewCoordinator(urls, opts)
	if err != nil {
		cr.stop()
		return nil, err
	}
	cr.coord = coord
	if cr.coordL, err = listen(traceHandler(b.tr, "cluster.handler", coord)); err != nil {
		cr.stop()
		return nil, err
	}
	for _, fn := range sp.fams {
		f := families[fn]
		st := keys
		if f.values {
			st = vals
		}
		cr.sks = append(cr.sks, newSketch(cr.coordL.url, "", f, st, fn))
	}
	c := &conn{b: b}
	for _, sk := range cr.sks {
		if err := b.create(c, sk); err != nil {
			cr.stop()
			return nil, err
		}
	}
	b.ingestRound(cr.sks, sp.prefill)
	return cr, nil
}

func (cr *clusterRun) stop() {
	if cr.coordL != nil {
		cr.coordL.stop()
	}
	for _, l := range cr.shardLs {
		l.stop()
	}
}

// openPhase runs the two open-loop streams for d: client 0 sends global
// queries, client 1 ingest batches, each on its own schedule.
func (b *bench) openPhase(cr *clusterRun, sp clusterSpec, d time.Duration) *phase {
	ph := newPhase()
	var items atomic.Int64
	n := len(cr.sks)
	rt0 := readRuntime()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	runClients(b, clients, func(c *conn, ci int) {
		if ci == 0 {
			sched := schedule{start: start, interval: time.Duration(float64(time.Second) / sp.queryRate)}
			lat, late := openLoop(wallClock{}, sched, end, func(i int) float64 {
				l, _ := b.query(c, cr.sks[i%n])
				return l
			})
			sched.record(&ph.query[ci], lat, nil)
			ph.late[ci] = late
			return
		}
		sched := schedule{start: start, interval: time.Duration(float64(time.Second) / sp.ingestRate)}
		got := make([]int, 0, int(d.Seconds()*sp.ingestRate)+1)
		lat, late := openLoop(wallClock{}, sched, end, func(i int) float64 {
			l, n := b.ingest(c, cr.sks[i%n])
			got = append(got, n)
			items.Add(int64(n))
			return l
		})
		sched.record(&ph.ingest[ci], lat, got)
		ph.late[ci] = late
	})
	ph.wall = time.Since(start)
	ph.rt = readRuntime().minus(rt0)
	ph.items = items.Load()
	return ph
}

// checkMerged compares the coordinator's merged hll and countmin answers
// with a single reference Entry fed the same stream: merged registers and
// counters must equal the single sketch's exactly.
func (b *bench) checkMerged(cr *clusterRun) {
	op := b.ops["merged_check"]
	c := &conn{b: b}
	for _, sk := range cr.sks {
		if sk.fam.name != "hll" && sk.fam.name != "countmin" {
			continue
		}
		lo, hi := sk.progress.bounds()
		if lo != hi {
			b.problem("%s: %d batches unacknowledged; merged check skipped", sk.name, hi-lo)
			continue
		}
		ref, err := server.NewEntry(sk.fam.create)
		if err != nil {
			b.problem("reference %s: %v", sk.name, err)
			continue
		}
		for j := int64(0); j < hi; j++ {
			if err := ref.Add(server.SplitBatch(sk.st.bodies[j%int64(len(sk.st.bodies))])); err != nil {
				b.problem("reference %s: %v", sk.name, err)
			}
		}
		params := []url.Values{{}}
		if sk.fam.name == "countmin" {
			params = params[:0]
			for _, p := range sk.st.probes {
				params = append(params, url.Values{"item": {string(p.key)}})
			}
		}
		for _, pv := range params {
			op.attempted.Add(1)
			want, err := ref.Query(pv)
			if err != nil {
				b.problem("reference %s query: %v", sk.name, err)
				continue
			}
			q := queryString(pv)
			status, body, err := c.do(http.MethodGet, sk.base+"/query"+q, nil, "client.query")
			if err != nil || status != http.StatusOK {
				op.status.Add(1)
				continue
			}
			var got map[string]any
			if err := json.Unmarshal(body, &got); err != nil {
				op.status.Add(1)
				continue
			}
			w, _ := json.Marshal(want["estimate"])
			g, _ := json.Marshal(got["estimate"])
			if string(w) != string(g) {
				op.bound.Add(1)
				b.problem("%s%s: merged estimate %s, single reference %s", sk.name, q, g, w)
			}
		}
		ref.Close()
	}
}

// restoreRounds is how many whole-cluster restores one call to
// restoreOnce times, one by one, each from a freshly collected heap: a
// restore takes a few milliseconds and allocates a large share of the
// heap, so without the collection before it, whether a collection ran
// inside it would decide its time.
const restoreRounds = 32

// restore is what cluster_query reports as recover_s: in-memory shards
// have no WAL to replay, so it times the per-sketch step of snapshot
// recovery for the whole cluster, every shard's sketches rebuilt from
// their full envelopes by server.RestoreEntry (which also verifies each
// rebuilt sketch serializes back byte-identical).
type restore struct {
	envs    [][]byte
	reqs    []server.CreateRequest
	seconds []float64
}

// envelopes fetches every shard's envelope of every sketch.
func (b *bench) envelopes(cr *clusterRun) *restore {
	rs := &restore{}
	c := &conn{b: b}
	for _, l := range cr.shardLs {
		for _, sk := range cr.sks {
			rs.envs = append(rs.envs, b.snapshot(c, &sketch{base: l.url + "/v1/sketch/" + sk.name}))
			rs.reqs = append(rs.reqs, sk.fam.create)
		}
	}
	return rs
}

func (rs *restore) bytes() float64 {
	n := 0
	for _, e := range rs.envs {
		n += cap(e)
	}
	return float64(n)
}

// restoreOnce times restoreRounds restores of the whole cluster.
func (b *bench) restoreOnce(rs *restore) {
	first := len(rs.seconds) == 0
	op := b.ops["recover"]
	for k := 0; k < restoreRounds; k++ {
		runtime.GC()
		t0 := time.Now()
		for i, env := range rs.envs {
			e, err := server.RestoreEntry(rs.reqs[i], env)
			if first && k == 0 {
				op.attempted.Add(1)
			}
			if err != nil {
				if first && k == 0 {
					op.bound.Add(1)
					b.problem("restore %s: %v", rs.reqs[i].Type, err)
				}
				continue
			}
			e.Close()
		}
		rs.seconds = append(rs.seconds, time.Since(t0).Seconds())
	}
}

// runCluster runs cluster_query end to end.
func (b *bench) runCluster(sp clusterSpec) error {
	keys := newKeyStream(b.seed, sp.cycleBatches, sp.batch)
	vals := newValueStream(b.seed, sp.cycleBatches, sp.batch)
	base := liveHeap()

	cr, setups, err := timeSetups(b, func(int) (*clusterRun, error) { return b.setupCluster(sp, keys, vals) },
		func(_ int, cur *clusterRun) error {
			cur.stop()
			return nil
		})
	if err != nil {
		return err
	}
	defer cr.stop()
	b.openPhase(cr, sp, warmup).free()
	rs := b.envelopes(cr)
	st0 := cr.coord.Status().Coordinator
	d := time.Duration(b.seconds * float64(time.Second))
	if b.traced {
		d /= 2
	}
	ph, err := segmentedPhase(d, func(d time.Duration) *phase { return b.openPhase(cr, sp, d) }, func() error {
		b.restoreOnce(rs)
		return nil
	})
	if err != nil {
		return err
	}
	var traced *phase
	if b.traced {
		b.tr.on.Store(true)
		traced = b.openPhase(cr, sp, d)
		b.tr.on.Store(false)
	}
	heap := quiescedHeap() - base - ph.lateBytes() - rs.bytes()
	st1 := cr.coord.Status().Coordinator
	fmt.Printf("coordinator: %d shard requests, %d retried, %d failed after retries, %d partial queries\n",
		st1.ShardRequests, st1.Retries, st1.ShardFailures, st1.PartialQueries)
	if st1.Retries > 0 || st1.ShardFailures > 0 || st1.PartialQueries > 0 {
		b.problem("coordinator retried %d shard calls, failed %d and answered %d queries partially; want none",
			st1.Retries, st1.ShardFailures, st1.PartialQueries)
	}
	b.checkMerged(cr)

	if !b.traced {
		b.set("setup_s", median(setups), "s")
		b.endToEndMetrics(ph)
		b.set("recover_s", median(rs.seconds), "s")
		b.set("heap_live_mb", heap/(1<<20), "MiB")
		return nil
	}
	return b.clusterLadder(cr, sp, keys, vals, ph, traced, st0, st1)
}
