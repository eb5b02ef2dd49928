package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/hashx"
	"repro/internal/mergex"
	"repro/internal/registry"
	"repro/internal/server"
)

// rungTime is how long each in-process rung repeats its call; per-call
// figures are means over that time.
const rungTime = 150 * time.Millisecond

// repeat calls fn until rungTime has passed and returns the calls made and
// the time they took.
func repeat(fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if d := time.Since(start); d >= rungTime {
			return n, d
		}
	}
}

// famRung is what the in-process rungs measured for one family.
type famRung struct {
	addNs, addContendedNs, queryUS, snapshotUS, envBytes, decodeUS, treeUS, mergedQueryUS float64

	entry *server.Entry // fed the stream; the WAL rung snapshots it
}

// familyRungs times the family's public calls on the workload's own
// batches: Entry.Add (one writer, then `clients` writers on one entry),
// Entry.Query right after a write, Entry.Snapshot, registry.Decode,
// mergex.Tree over one envelope per shard, and Bind.Query on the merge.
func familyRungs(f family, st *stream, shards int) (famRung, error) {
	var r famRung
	batches := make([][][]byte, len(st.bodies))
	for i, body := range st.bodies {
		batches[i] = server.SplitBatch(body)
	}
	e, err := server.NewEntry(f.create)
	if err != nil {
		return r, err
	}
	r.entry = e
	k := 0
	calls, d := repeat(func() {
		if err == nil {
			err = e.Add(batches[k%len(batches)])
		}
		k++
	})
	r.addNs = float64(d) / float64(calls*st.batch)

	shared, err2 := server.NewEntry(f.create)
	if err2 != nil {
		return r, err2
	}
	var items atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Since(start) < rungTime; i += clients {
				if shared.Add(batches[i%len(batches)]) == nil {
					items.Add(int64(st.batch))
				}
			}
		}(w)
	}
	wg.Wait()
	r.addContendedNs = float64(time.Since(start)) * clients / float64(items.Load())
	shared.Close()

	var qd time.Duration
	qn := 0
	repeat(func() {
		_ = e.Add(batches[k%len(batches)])
		k++
		a, _ := f.pickArgs(st, st.cycle(), qn)
		t0 := time.Now()
		if _, qerr := e.Query(f.params(st, a)); qerr != nil && err == nil {
			err = qerr
		}
		qd += time.Since(t0)
		qn++
	})
	r.queryUS = float64(qd) / float64(qn) / 1e3

	var env []byte
	calls, d = repeat(func() {
		var serr error
		if env, serr = e.Snapshot(); serr != nil && err == nil {
			err = serr
		}
	})
	r.snapshotUS, r.envBytes = float64(d)/float64(calls)/1e3, float64(len(env))
	calls, d = repeat(func() {
		if _, _, derr := registry.Decode(env); derr != nil && err == nil {
			err = derr
		}
	})
	r.decodeUS = float64(d) / float64(calls) / 1e3

	var td time.Duration
	var merged any
	var desc *registry.Descriptor
	tn := 0
	repeat(func() {
		insts := make([]any, shards)
		for i := range insts {
			insts[i], desc, _ = registry.Decode(env)
		}
		t0 := time.Now()
		m, merr := mergex.Tree(insts, desc.Bind.Merge)
		td += time.Since(t0)
		tn++
		if merr != nil && err == nil {
			err = merr
		}
		merged = m
	})
	r.treeUS = float64(td) / float64(tn) / 1e3
	qn = 0
	calls, d = repeat(func() {
		a, _ := f.pickArgs(st, st.cycle(), qn)
		qn++
		if _, qerr := desc.Bind.Query(merged, f.params(st, a)); qerr != nil && err == nil {
			err = qerr
		}
	})
	r.mergedQueryUS = float64(d) / float64(calls) / 1e3
	return r, err
}

// keyItems splits every body of a key stream into items.
func keyItems(st *stream) [][]byte {
	var items [][]byte
	for _, body := range st.bodies {
		items = append(items, server.SplitBatch(body)...)
	}
	return items
}

// commonRungs sets the rungs every workload has: hashing, splitting and the
// per-family entry calls, plus the runtime counters of the untraced phase
// and the checks' worst error ratios. It returns the per-family results.
func (b *bench) commonRungs(fams []string, keys, vals *stream, shards int, ph *phase) (map[string]famRung, error) {
	items := keyItems(keys)
	var sink uint64
	i := 0
	calls, d := repeat(func() {
		for _, it := range items {
			sink += hashx.XXHash64(it, uint64(i))
		}
		i++
	})
	_ = sink
	b.set("hashx.xxhash_ns_per_item", float64(d)/float64(calls*len(items)), "ns")

	var dst [][]byte
	calls, d = repeat(func() {
		for _, body := range keys.bodies {
			dst = server.SplitBatchAppend(dst[:0], body)
		}
	})
	b.set("server.split_ns_per_item", float64(d)/float64(calls*len(items)), "ns")

	out := map[string]famRung{}
	for _, fn := range allFamilies {
		if !slices.Contains(fams, fn) {
			why := "family not in this workload"
			for _, m := range []struct{ name, unit string }{
				{"server.entry_add_ns_per_item", "ns"}, {"server.entry_add_contended_ns_per_item", "ns"},
				{"server.entry_query_us", "us"}, {"server.entry_snapshot_us", "us"}, {"server.envelope_bytes", "count"},
				{"registry.decode_us_per_envelope", "us"}, {"mergex.tree_us_per_query", "us"},
				{"cluster.merged_query_us", "us"}, {"check.max_err_ratio", "ratio"},
			} {
				b.setAbsent(m.name+"."+fn, m.unit, why)
			}
			continue
		}
		f := families[fn]
		st := keys
		if f.values {
			st = vals
		}
		r, err := familyRungs(f, st, shards)
		if err != nil {
			return nil, fmt.Errorf("%s rungs: %w", fn, err)
		}
		out[fn] = r
		b.set("server.entry_add_ns_per_item."+fn, r.addNs, "ns")
		b.set("server.entry_add_contended_ns_per_item."+fn, r.addContendedNs, "ns")
		b.set("server.entry_query_us."+fn, r.queryUS, "us")
		b.set("server.entry_snapshot_us."+fn, r.snapshotUS, "us")
		b.set("server.envelope_bytes."+fn, r.envBytes, "count")
		b.set("registry.decode_us_per_envelope."+fn, r.decodeUS, "us")
		b.set("mergex.tree_us_per_query."+fn, r.treeUS, "us")
		b.set("cluster.merged_query_us."+fn, r.mergedQueryUS, "us")
		b.mu.Lock()
		ratio := b.maxRatio[fn]
		b.mu.Unlock()
		b.set("check.max_err_ratio."+fn, ratio, "ratio")
	}

	rt := ph.rt
	perItem := float64(max(ph.items, 1))
	b.set("runtime.allocs_per_item", rt.allocs/perItem, "count")
	b.set("runtime.alloc_bytes_per_item", rt.allocBytes/perItem, "bytes")
	b.set("runtime.gc_cycles", rt.gcCycles, "count")
	b.set("runtime.gc_cpu_frac", rt.gcCPU/max(rt.totalCPU, 1e-9), "ratio")
	return out, nil
}

// nopRecovery is the recovery handler of the WAL rung's fresh directory.
type nopRecovery struct{}

func (nopRecovery) Begin(uint64) error                     { return nil }
func (nopRecovery) RestoreSketch(durable.SketchSnap) error { return nil }
func (nopRecovery) Replay(durable.Record) error            { return nil }

// walRungs times durable.Manager on a directory of its own, with the
// workload's batches and sketch set: Append per batch (queue-full waits
// included), the Sync barrier, and SnapshotNow over every sketch.
func (b *bench) walRungs(sks []*sketch, rungs map[string]famRung) error {
	dir := filepath.Join(b.dir, "rung-wal")
	m, err := durable.Open(dir, durableOpts())
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := m.Recover(nopRecovery{}); err != nil {
		return err
	}
	err = m.Start(func() []durable.SketchSnap {
		snaps := make([]durable.SketchSnap, 0, len(sks))
		for _, sk := range sks {
			data, err := rungs[sk.fam.name].entry.Snapshot()
			if err != nil {
				continue
			}
			req, _ := json.Marshal(sk.fam.create)
			snaps = append(snaps, durable.SketchSnap{Tenant: sk.tenant, Name: sk.name, Req: req, Data: data})
		}
		return snaps
	})
	if err != nil {
		return err
	}
	defer m.Kill() // nothing here needs to survive
	k := 0
	calls, d := repeat(func() {
		sk := sks[k%len(sks)]
		m.Append(durable.OpIngest, sk.tenant, sk.name, sk.st.bodies[(k/len(sks))%len(sk.st.bodies)])
		k++
	})
	b.set("durable.append_us_per_batch", float64(d)/float64(calls)/1e3, "us")
	var syncs, snaps []float64
	for r := 0; r < 5; r++ {
		for j := 0; j < 20; j++ {
			sk := sks[j%len(sks)]
			m.Append(durable.OpIngest, sk.tenant, sk.name, sk.st.bodies[j%len(sk.st.bodies)])
		}
		t0 := time.Now()
		if err := m.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, ms(time.Since(t0)))
	}
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if err := m.SnapshotNow(); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0)))
	}
	b.set("durable.sync_ms", median(syncs), "ms")
	b.set("durable.snapshot_ms", median(snaps), "ms")
	return nil
}

// A rung is one step of a ladder with its cost per operation in µs.
type rung struct {
	name string
	us   float64
}

// A ladder splits the mean client-visible time of one operation (e2eUS)
// into rungs. Whatever the rungs do not cover is unattributed: the handler
// code between the measured calls, and any waiting the in-process rungs
// cannot see.
type ladder struct {
	name   string
	perOp  int // items per operation: costs print per item when > 1
	ops    int
	e2eUS  float64
	rungs  []rung
	nested []rung // finer rungs already counted inside a rung above, shown for reference
}

func (l ladder) unattributed() float64 {
	sum := 0.0
	for _, r := range l.rungs {
		sum += r.us
	}
	return l.e2eUS - sum
}

// printLadders prints every rung's cost per item or per query and share of
// the end-to-end time, names the three most expensive rungs, and sets
// trace.unattributed_frac over all ladders, weighted by operation counts.
func (b *bench) printLadders(ls ...ladder) {
	var unattr, total float64
	type ranked struct {
		name  string
		share float64
	}
	var all []ranked
	for _, l := range ls {
		if l.ops == 0 || l.e2eUS <= 0 {
			continue
		}
		unit, scale := "us/query", 1.0
		if l.perOp > 1 {
			unit, scale = "ns/item", 1e3/float64(l.perOp)
		}
		fmt.Printf("ladder %s: %d ops, end-to-end %.4g %s\n", l.name, l.ops, l.e2eUS*scale, unit)
		for _, r := range l.rungs {
			fmt.Printf("  %-34s %12.4g %s %7.1f%%\n", r.name, r.us*scale, unit, 100*r.us/l.e2eUS)
			all = append(all, ranked{l.name + "/" + r.name, r.us * float64(l.ops)})
		}
		u := l.unattributed()
		fmt.Printf("  %-34s %12.4g %s %7.1f%%\n", "(unattributed)", u*scale, unit, 100*u/l.e2eUS)
		for _, r := range l.nested {
			fmt.Printf("    within: %-24s %12.4g %s %7.1f%%\n", r.name, r.us*scale, unit, 100*r.us/l.e2eUS)
		}
		unattr += u * float64(l.ops)
		total += l.e2eUS * float64(l.ops)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].share > all[j].share })
	var top []string
	for i := 0; i < len(all) && i < 3; i++ {
		top = append(top, fmt.Sprintf("%s (%.1f%% of traced time)", all[i].name, 100*all[i].share/total))
	}
	fmt.Println("most expensive rungs:", strings.Join(top, ", "))
	b.set("trace.unattributed_frac", unattr/total, "ratio")
}

// spanDiffUS is the mean, over spans named outer, of the outer span minus
// its child spans whose name has childPrefix: the time between two layers.
func spanDiffUS(st spanStats, outer, childPrefix string) (float64, int) {
	var sum float64
	n := 0
	for _, s := range st.byName[outer] {
		for _, c := range st.children[s.ID] {
			if strings.HasPrefix(c.Name, childPrefix) {
				sum += float64(s.dur() - c.dur())
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n) / 1e3, n
}

// overhead compares one end-to-end latency between the traced and untraced
// halves of a traced run.
func (b *bench) overhead(untraced, traced []sampleLog) {
	b.set("trace.overhead_frac", pooledMedian(views(traced))/pooledMedian(views(untraced))-1, "ratio")
}

// hashPerItem is the hashing cost of an average item of the workload:
// sketches fed numbers (kll) do not hash, and batches spread evenly over
// the families.
func (b *bench) hashPerItem(fams []string) float64 {
	keyed := 0
	for _, fn := range fams {
		if !families[fn].values {
			keyed++
		}
	}
	return float64(keyed) / float64(len(fams)) * b.metrics["hashx.xxhash_ns_per_item"].Value
}

func meanOver(rs map[string]famRung, fams []string, f func(famRung) float64) float64 {
	var xs []float64
	for _, fn := range fams {
		xs = append(xs, f(rs[fn]))
	}
	return mean(xs)
}

// singleLadder sets the per-layer metrics of mixed_small and prints its
// ladders.
func (b *bench) singleLadder(s *single, sp singleSpec, keys, vals *stream, ph, traced *phase, rec *recovery) error {
	rungs, err := b.commonRungs(sp.fams, keys, vals, clusterQuery.shards, ph)
	if err != nil {
		return err
	}
	if err := b.walRungs(s.sks, rungs); err != nil {
		return fmt.Errorf("wal rungs: %w", err)
	}
	b.set("durable.wal_bytes_per_item", float64(rec.walBytes)/float64(rec.items), "count")
	b.set("durable.records_replayed", float64(rec.stats.RecordsReplayed), "count")
	b.set("durable.replay_us_per_record", median(rec.seconds)*1e6/float64(max(rec.stats.RecordsReplayed, 1)), "us")

	spans := b.tr.snapshot()
	st := aggregate(spans)
	addUS, _ := st.meanUS("server.add", false)
	queryUS, _ := st.meanUS("server.query", false)
	b.set("server.handler_add_us", addUS, "us")
	b.set("server.handler_query_us", queryUS, "us")
	addTransport, na := spanDiffUS(st, "client.add", "server.")
	queryTransport, nq := spanDiffUS(st, "client.query", "server.")
	b.set("transport.roundtrip_us", (addTransport*float64(na)+queryTransport*float64(nq))/float64(max(na+nq, 1)), "us")
	for _, m := range []struct{ name, unit string }{
		{"cluster.route_ns_per_item", "ns"}, {"cluster.fanout_us_per_batch", "us"}, {"cluster.gather_us", "us"},
		{"cluster.shard_call_us_p50", "us"}, {"cluster.shard_call_us_p99", "us"}, {"cluster.gather_straggler_ratio", "ratio"},
		{"cluster.gather_bytes_per_query", "count"}, {"cluster.retries", "count"}, {"cluster.shard_failures", "count"},
		{"cluster.handler_query_us", "us"},
	} {
		b.setAbsent(m.name, m.unit, "no cluster in this workload")
	}
	b.setAbsent("loadgen.late_p99_ms", "ms", "closed loop: no due times")
	// Every read follows a write, so the read's latency is the end-to-end
	// figure of the pair.
	b.overhead(ph.query, traced.query)

	perItemUS := func(ns float64) float64 { return ns * float64(sp.batch) / 1e3 }
	hash := b.hashPerItem(sp.fams)
	add := meanOver(rungs, sp.fams, func(r famRung) float64 { return r.addNs })
	clientAdd, _ := st.meanUS("client.add", false)
	clientQuery, _ := st.meanUS("client.query", false)
	b.printLadders(
		ladder{name: "ingest", perOp: sp.batch, ops: st.count["client.add"], e2eUS: clientAdd, rungs: []rung{
			{"hashx.hash", perItemUS(hash)},
			{"sketch update (Entry.Add - hash)", perItemUS(add - hash)},
			{"server.split", perItemUS(b.metrics["server.split_ns_per_item"].Value)},
			{"durable.append", b.metrics["durable.append_us_per_batch"].Value},
			{"transport", addTransport},
		}},
		ladder{name: "read", perOp: 1, ops: st.count["client.query"], e2eUS: clientQuery, rungs: []rung{
			{"Entry.Query", meanOver(rungs, sp.fams, func(r famRung) float64 { return r.queryUS })},
			{"transport", queryTransport},
		}},
	)
	for _, r := range rungs {
		r.entry.Close()
	}
	return nil
}

// clusterLadder sets the per-layer metrics of cluster_query and prints its
// ladders.
func (b *bench) clusterLadder(cr *clusterRun, sp clusterSpec, keys, vals *stream, ph, traced *phase, st0, st1 cluster.CoordCountersSnapshot) error {
	rungs, err := b.commonRungs(sp.fams, keys, vals, sp.shards, ph)
	if err != nil {
		return err
	}
	for _, m := range []struct{ name, unit string }{
		{"durable.append_us_per_batch", "us"}, {"durable.sync_ms", "ms"}, {"durable.snapshot_ms", "ms"},
		{"durable.wal_bytes_per_item", "count"}, {"durable.records_replayed", "count"}, {"durable.replay_us_per_record", "us"},
	} {
		b.setAbsent(m.name, m.unit, "in-memory shards: no WAL in this workload")
	}

	spans := b.tr.snapshot()
	attribute(spans)
	st := aggregate(spans)
	attributed := 0
	for _, s := range st.byName["cluster.shard_call"] {
		if s.Attributed {
			attributed++
		}
	}
	fmt.Printf("trace: %d of %d shard calls attributed to a coordinator span by path and time containment (the request ID does not cross the coordinator)\n",
		attributed, st.count["cluster.shard_call"])

	addUS, _ := st.meanUS("server.add", false)
	snapUS, _ := st.meanUS("server.snapshot", false)
	b.set("server.handler_add_us", addUS, "us")
	b.setAbsent("server.handler_query_us", "us", "shards serve no /query in this workload: the coordinator gathers their /snapshot (read ladder)")
	addTransport, na := spanDiffUS(st, "client.add", "cluster.handler.")
	queryTransport, nq := spanDiffUS(st, "client.query", "cluster.handler.")
	b.set("transport.roundtrip_us", (addTransport*float64(na)+queryTransport*float64(nq))/float64(max(na+nq, 1)), "us")
	coordQueryUS, _ := st.meanUS("cluster.handler.query", false)
	b.set("cluster.handler_query_us", coordQueryUS, "us")

	// Shard calls of gathers: the add calls of the ingest stream are
	// covered by the ingest ladder.
	var calls []float64
	for _, s := range st.byName["cluster.shard_call"] {
		if strings.HasSuffix(s.Path, "/snapshot") {
			calls = append(calls, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(calls)
	p50, _ := percentile(calls, 0.5)
	p99, q := highPercentile(calls, 0.99)
	if q != 0.99 {
		b.note("cluster.shard_call_us_p99: %d samples support only p%g, reported instead", len(calls), q*100)
	}
	b.set("cluster.shard_call_us_p50", p50, "us")
	b.set("cluster.shard_call_us_p99", p99, "us")
	var ratios []float64
	for _, s := range st.byName["cluster.handler.query"] {
		var ds []float64
		for _, c := range st.children[s.ID] {
			ds = append(ds, float64(c.dur()))
		}
		if len(ds) > 1 {
			ratios = append(ratios, slices.Max(ds)/median(ds))
		}
	}
	b.set("cluster.gather_straggler_ratio", mean(ratios), "ratio")
	b.set("cluster.gather_bytes_per_query", float64(st1.GatherBytes-st0.GatherBytes)/float64(max(st1.Queries-st0.Queries, 1)), "count")
	var late []float64
	for _, l := range ph.late {
		late = append(late, l...)
	}
	sort.Float64s(late)
	lateP99, _ := highPercentile(late, 0.99)
	b.set("loadgen.late_p99_ms", lateP99, "ms")
	b.overhead(ph.query, traced.query)

	ring, seed := cr.coord.Ring(), cluster.SeedFor("")
	items := keyItems(keys)
	var sink int
	calls2, d := repeat(func() {
		for _, it := range items {
			sink += ring.ShardSeeded(it, seed)
		}
	})
	_ = sink
	b.set("cluster.route_ns_per_item", float64(d)/float64(calls2*len(items)), "ns")
	// The fan-out and gather rungs run after the checks: their batches
	// land in the live sketches.
	var fan, gather []float64
	for _, sk := range cr.sks {
		for j := 0; j < 20; j++ {
			t0 := time.Now()
			if _, fails := cr.coord.FanOutAdd(sk.name, sk.st.bodies[j%len(sk.st.bodies)]); len(fails) > 0 {
				b.problem("fan-out rung %s: %v", sk.name, fails)
			}
			fan = append(fan, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			if _, fails := cr.coord.Gather(sk.name); len(fails) > 0 {
				b.problem("gather rung %s: %v", sk.name, fails)
			}
			gather = append(gather, float64(time.Since(t0))/1e3)
		}
	}
	b.set("cluster.fanout_us_per_batch", median(fan), "us")
	b.set("cluster.gather_us", median(gather), "us")
	final := cr.coord.Status().Coordinator
	b.set("cluster.retries", float64(final.Retries), "count")
	b.set("cluster.shard_failures", float64(final.ShardFailures), "count")

	// Read ladder: client → coordinator handler (own time: decode, tree
	// merge, merged query) → shard calls in parallel, whose critical path
	// is the straggler wait plus one call: transport, then the shard
	// handler around Entry.Snapshot.
	clientQuery, _ := st.meanUS("client.query", false)
	coordSelf, _ := st.meanUS("cluster.handler.query", true)
	callMean := mean(calls)
	covered := coordQueryUS - coordSelf
	avg := func(f func(famRung) float64) float64 { return meanOver(rungs, sp.fams, f) }
	shards := float64(sp.shards)
	// Ingest ladder: client → coordinator (route, fan-out) → shard add.
	clientAdd, _ := st.meanUS("client.add", false)
	coordAdd, _ := st.meanUS("cluster.handler.add", false)
	coordAddSelf, _ := st.meanUS("cluster.handler.add", true)
	perShard := float64(sp.batch) / shards
	hash := b.hashPerItem(sp.fams)
	b.printLadders(
		ladder{name: "global read", perOp: 1, ops: st.count["client.query"], e2eUS: clientQuery, rungs: []rung{
			{"client transport", queryTransport},
			{"registry.Decode x shards", shards * avg(func(r famRung) float64 { return r.decodeUS })},
			{"mergex.Tree", avg(func(r famRung) float64 { return r.treeUS })},
			{"Bind.Query on merge", avg(func(r famRung) float64 { return r.mergedQueryUS })},
			{"straggler wait", covered - callMean},
			{"shard transport", callMean - snapUS},
			{"Entry.Snapshot", avg(func(r famRung) float64 { return r.snapshotUS })},
		}},
		ladder{name: "ingest", perOp: sp.batch, ops: st.count["client.add"], e2eUS: clientAdd, rungs: []rung{
			{"client transport", addTransport},
			{"cluster.route", b.metrics["cluster.route_ns_per_item"].Value * float64(sp.batch) / 1e3},
			{"shard calls (critical path)", coordAdd - coordAddSelf},
		}, nested: []rung{
			{"shard split", b.metrics["server.split_ns_per_item"].Value * perShard / 1e3},
			{"shard hash", hash * perShard / 1e3},
			{"shard update", (avg(func(r famRung) float64 { return r.addNs }) - hash) * perShard / 1e3},
		}},
	)
	for _, r := range rungs {
		r.entry.Close()
	}
	return nil
}
