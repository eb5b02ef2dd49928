package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// singleSpec shapes a workload against one durable sketchd.
type singleSpec struct {
	tenant       string
	perFamily    int // sketches per family
	fams         []string
	batch        int // lines per ingest POST
	cycleBatches int // batches in one stream cycle
	prefill      int // batches per sketch during set-up
	tail         int // batches per sketch between the clean reopen and the kill
}

var mixedSmall = singleSpec{
	tenant: "t0", perFamily: 2,
	fams:  []string{"hll", "countmin", "kll", "blockedbloom"},
	batch: 16, cycleBatches: 256, prefill: 64, tail: 4096,
}

// durableOpts are the durability settings sketchd ships with (cmd/sketchd
// flag defaults): 100 ms group commit, 1 min snapshots, 64 MiB WAL trigger.
func durableOpts() durable.Options {
	return durable.Options{FsyncInterval: 100 * time.Millisecond, SnapshotInterval: time.Minute, WALMaxBytes: 64 << 20}
}

type single struct {
	srv  *server.Server
	l    *listener
	dir  string
	sks  []*sketch
	next atomic.Int64 // batches sent in closed loops: the round-robin position
}

func (b *bench) startSingle(dir string) (*server.Server, *listener, error) {
	srv := server.New()
	if _, err := srv.EnableDurability(dir, durableOpts()); err != nil {
		return nil, nil, fmt.Errorf("enable durability: %w", err)
	}
	l, err := listen(traceHandler(b.tr, "server", srv.Handler()))
	if err != nil {
		_ = srv.KillDurability()
		return nil, nil, err
	}
	return srv, l, nil
}

// setupSingle starts a durable server, creates the workload's sketches and
// prefills them: everything before the first timed operation.
func (b *bench) setupSingle(sp singleSpec, keys, vals *stream, dir string) (*single, error) {
	srv, l, err := b.startSingle(dir)
	if err != nil {
		return nil, err
	}
	s := &single{srv: srv, l: l, dir: dir}
	for _, fn := range sp.fams {
		f := families[fn]
		st := keys
		if f.values {
			st = vals
		}
		for i := 0; i < sp.perFamily; i++ {
			s.sks = append(s.sks, newSketch(l.url, sp.tenant, f, st, fmt.Sprintf("%s-%d", fn, i)))
		}
	}
	errs := make([]error, clients)
	runClients(b, clients, func(c *conn, ci int) {
		for i := ci; i < len(s.sks) && errs[ci] == nil; i += clients {
			errs[ci] = b.create(c, s.sks[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		s.kill()
		return nil, err
	}
	b.ingestRound(s.sks, sp.prefill)
	return s, nil
}

// ingestRound sends rounds batches to every sketch from the closed-loop
// clients.
func (b *bench) ingestRound(sks []*sketch, rounds int) {
	var next atomic.Int64
	total := int64(len(sks) * rounds)
	runClients(b, clients, func(c *conn, _ int) {
		for k := next.Add(1) - 1; k < total; k = next.Add(1) - 1 {
			b.ingest(c, sks[k%int64(len(sks))])
		}
	})
}

// kill stops the server without a final snapshot and removes its directory.
func (s *single) kill() {
	s.l.stop()
	_ = s.srv.KillDurability() // the directory is removed next
	os.RemoveAll(s.dir)
}

// phase holds what one timed phase measured.
type phase struct {
	ingest, query []sampleLog // per client
	late          [][]float64 // per open-loop client: ms behind the due time
	items         int64
	wall          time.Duration
	rt            rtSample // runtime counters' growth over the phase
}

func newPhase() *phase {
	return &phase{ingest: make([]sampleLog, clients), query: make([]sampleLog, clients), late: make([][]float64, clients)}
}

// lateBytes is the harness's own heap storage of send delays, taken out of
// heap_live_mb; latencies are kept off the heap.
func (p *phase) lateBytes() float64 {
	n := 0
	for _, l := range p.late {
		n += 8 * cap(l)
	}
	return float64(n)
}

func (p *phase) free() {
	for i := 0; i < clients; i++ {
		p.ingest[i].free()
		p.query[i].free()
	}
}

// extend appends a later segment of the same phase and frees it: its
// samples move by the time already measured, and its counts and counters
// add.
func (p *phase) extend(q *phase) {
	off := p.wall.Seconds()
	shift := func(dst, src *sampleLog) {
		for _, s := range src.s {
			s.at += off
			dst.add(s)
		}
	}
	for i := 0; i < clients; i++ {
		shift(&p.ingest[i], &q.ingest[i])
		shift(&p.query[i], &q.query[i])
		p.late[i] = append(p.late[i], q.late[i]...)
	}
	p.items += q.items
	p.wall += q.wall
	p.rt = p.rt.plus(q.rt)
	q.free()
}

// segments is how many parts a timed phase is cut into. One recovery is
// timed after each part rather than all of them in a burst after the
// phase: the host's speed drifts over seconds, and recoveries spread over
// the whole phase sample that drift as the phase's latencies do.
const segments = recoverReps

// segmentedPhase runs d of run in segments parts and calls between after
// each part, outside the timed phase. The garbage between leaves is
// collected before the next part starts.
func segmentedPhase(d time.Duration, run func(time.Duration) *phase, between func() error) (*phase, error) {
	ph := newPhase()
	for i := 0; i < segments; i++ {
		ph.extend(run(d / segments))
		if err := between(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return ph, nil
}

// closedPhase runs the closed-loop clients for d.
func (b *bench) closedPhase(s *single, d time.Duration) *phase {
	ph := newPhase()
	var items atomic.Int64
	n := int64(len(s.sks))
	rt0 := readRuntime()
	start := time.Now()
	end := start.Add(d)
	runClients(b, clients, func(c *conn, ci int) {
		il, ql := &ph.ingest[ci], &ph.query[ci]
		for time.Now().Before(end) {
			k := s.next.Add(1) - 1
			sk := s.sks[k%n]
			lat, got := b.ingest(c, sk)
			il.add(sample{at: time.Since(start).Seconds(), ms: lat, items: got})
			items.Add(int64(got))
			if lat, ok := b.query(c, sk); ok {
				ql.add(sample{at: time.Since(start).Seconds(), ms: lat})
			}
		}
	})
	ph.wall = time.Since(start)
	ph.rt = readRuntime().minus(rt0)
	ph.items = items.Load()
	return ph
}

// recovery is a killed server's directory and what recovering it
// measured.
type recovery struct {
	dir      string
	want     []snapshotDigest // every sketch as the killed server last served it
	seconds  []float64
	stats    durable.RecoveryStats
	walBytes int64
	items    int64
}

type snapshotDigest struct {
	label, path string // tenant/name, and the snapshot path on the server
	sum         [sha256.Size]byte
}

// killForRecovery turns a set-up that will not be measured into the
// directory every recovery of the run starts from: it shuts the server down
// cleanly, reopens its directory (so the WAL starts empty), sends the same
// fixed tail of batches to every sketch, records each sketch's snapshot,
// and kills the server. Set-ups are identical, so every run recovers the
// same snapshot and replays the same WAL length.
func (b *bench) killForRecovery(s *single, sp singleSpec) (*recovery, error) {
	s.l.stop()
	if err := s.srv.CloseDurability(); err != nil {
		return nil, fmt.Errorf("close durability: %w", err)
	}
	srv, l, err := b.startSingle(s.dir)
	if err != nil {
		return nil, err
	}
	for _, sk := range s.sks {
		sk.base = l.url + strings.TrimPrefix(sk.base, s.l.url)
	}
	b.ingestRound(s.sks, sp.tail)
	rec := &recovery{dir: s.dir, items: int64(len(s.sks) * sp.tail * sp.batch)}
	c := &conn{b: b}
	for _, sk := range s.sks {
		path := strings.TrimPrefix(sk.base, l.url) + "/snapshot"
		rec.want = append(rec.want, snapshotDigest{sk.tenant + "/" + sk.name, path, sha256.Sum256(b.snapshot(c, sk))})
	}
	l.stop()
	if err := srv.KillDurability(); err != nil {
		return nil, fmt.Errorf("kill: %w", err)
	}
	walFiles, _ := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
	for _, f := range walFiles {
		if fi, err := os.Stat(f); err == nil {
			rec.walBytes += fi.Size()
		}
	}
	return rec, nil
}

// recoverOnce times EnableDurability on a fresh server over a copy of the
// killed directory and checks every sketch comes back byte-identical.
func (b *bench) recoverOnce(rec *recovery) error {
	r := len(rec.seconds)
	cp := fmt.Sprintf("%s-recover%d", rec.dir, r)
	if err := copyDir(rec.dir, cp); err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	runtime.GC()
	t0 := time.Now()
	srv := server.New()
	st, err := srv.EnableDurability(cp, durableOpts())
	rec.seconds = append(rec.seconds, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer srv.KillDurability() // the copy is removed next
	rec.stats = st
	h := srv.Handler()
	op := b.ops["recover"]
	for _, w := range rec.want {
		if r == 0 {
			op.attempted.Add(1)
		}
		resp := httptest.NewRecorder()
		h.ServeHTTP(resp, httptest.NewRequest(http.MethodGet, w.path, nil))
		if resp.Code != http.StatusOK || sha256.Sum256(resp.Body.Bytes()) != w.sum {
			if r == 0 {
				op.bound.Add(1)
			}
			b.problem("recovery %d: %s not byte-identical after the kill (status %d)", r, w.label, resp.Code)
		}
	}
	return nil
}

func (b *bench) snapshot(c *conn, sk *sketch) []byte {
	op := b.ops["snapshot"]
	op.attempted.Add(1)
	status, body, err := c.do(http.MethodGet, sk.base+"/snapshot", nil, "client.snapshot")
	switch {
	case err != nil:
		op.transport.Add(1)
		return nil
	case status != http.StatusOK:
		op.status.Add(1)
		return nil
	}
	return append([]byte(nil), body...)
}

// copyDir copies the files of src into dst and syncs them to disk, so a
// recovery timed over dst starts, like one after a real crash, with its
// data on disk rather than waiting behind the copy's writeback.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), data); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSingle runs mixed_small end to end.
func (b *bench) runSingle(sp singleSpec) error {
	keys := newKeyStream(b.seed, sp.cycleBatches, sp.batch)
	vals := newValueStream(b.seed, sp.cycleBatches, sp.batch)
	base := liveHeap()

	var rec *recovery
	s, setups, err := timeSetups(b, func(r int) (*single, error) {
		return b.setupSingle(sp, keys, vals, filepath.Join(b.dir, fmt.Sprintf("data%d", r)))
	}, func(r int, cur *single) (err error) {
		if r == 0 {
			rec, err = b.killForRecovery(cur, sp)
			return err
		}
		cur.kill()
		return nil
	})
	if err != nil {
		return err
	}
	b.closedPhase(s, warmup).free()
	d := time.Duration(b.seconds * float64(time.Second))
	if b.traced {
		d /= 2
	}
	ph, err := segmentedPhase(d, func(d time.Duration) *phase { return b.closedPhase(s, d) }, func() error {
		// Let the group commit drain, so the measured server's WAL
		// writes do not overlap the recovery.
		time.Sleep(2 * durableOpts().FsyncInterval)
		return b.recoverOnce(rec)
	})
	if err != nil {
		return err
	}
	var traced *phase
	if b.traced {
		b.tr.on.Store(true)
		traced = b.closedPhase(s, d)
		b.tr.on.Store(false)
	}
	heap := quiescedHeap() - base
	s.kill()

	if !b.traced {
		b.set("setup_s", median(setups), "s")
		b.endToEndMetrics(ph)
		b.set("recover_s", median(rec.seconds), "s")
		b.set("heap_live_mb", heap/(1<<20), "MiB")
		return nil
	}
	return b.singleLadder(s, sp, keys, vals, ph, traced, rec)
}

// endToEndMetrics sets the throughput and the four latency metrics of an
// untraced phase.
func (b *bench) endToEndMetrics(ph *phase) {
	b.set("ingest_items_per_s", windowedRate(views(ph.ingest), ph.wall.Seconds()), "items/s")
	b.setLatency("ingest", views(ph.ingest))
	b.setLatency("query", views(ph.query))
}
