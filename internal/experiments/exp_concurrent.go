package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/hashx"
)

func init() {
	register("E29", "core-local buffered ingest vs shared-atomic under multi-writer load", runE29)
}

// e29Items returns the per-measurement ingest size: 2M pre-hashed
// updates by default, overridable via E29_WRITER_ITEMS for CI smoke
// runs (the scaling *shape* survives smaller sizes; the absolute
// throughput numbers need the default).
func e29Items() int {
	if s := os.Getenv("E29_WRITER_ITEMS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 2_000_000
}

// e29WriterCounts sweeps powers of two up to GOMAXPROCS, always
// including GOMAXPROCS itself so the scaling endpoints are exact.
func e29WriterCounts(max int) []int {
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

// e29Measure times one multi-writer ingest configuration: setup builds
// a fresh sketch, each writer goroutine runs ingest over its shard
// after a common start barrier, and finish (inside the timed region)
// completes propagation. Wall time is min-of-3 after one warm rep;
// returns Mops/s.
func e29Measure(writers, total int, setup func(), ingest func(w, lo, hi int), finish func()) float64 {
	per := total / writers
	best := math.Inf(1)
	for rep := 0; rep <= 3; rep++ {
		setup()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				ingest(w, w*per, (w+1)*per)
			}(w)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		if finish != nil {
			finish()
		}
		if el := time.Since(t0).Seconds(); rep > 0 && el < best {
			best = el
		}
	}
	return float64(writers*per) / best / 1e6
}

// runE29 measures what ROADMAP item 2 names as the current ceiling:
// shared-memory atomic wrappers serialize multi-writer ingest on hot
// cache lines (AtomicCountMin's shared total counter alone is one
// atomic RMW per update from every writer), so throughput flattens —
// or inverts — as writers are added. The local-buffer/global-
// propagation variants (Rinberg et al., "Fast Concurrent Data
// Sketches") give each writer a private bounded buffer and fold
// buffers into the global sketch from one propagator goroutine, so
// writer work is core-local and scaling tracks GOMAXPROCS. The price
// is relaxed reads with a quantified staleness bound, verified here
// and in the property tests.
//
// Timed regions include each writer's final flush and a full
// propagation sync, so buffered numbers are end-to-end (no hidden
// deferred work), and all variants consume identical pre-hashed
// updates (hashing is off the clock for both).
func runE29() *Result {
	const width, depth = 2048, 4 // the countmin serving default shape
	total := e29Items()
	maxW := runtime.GOMAXPROCS(0)
	counts := e29WriterCounts(maxW)

	hs := make([]uint64, total)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 0xE29)
	}

	// --- Count-Min: atomic vs buffered across the writer sweep.
	cmTbl := core.NewTable(
		fmt.Sprintf("Count-Min %dx%d multi-writer ingest, %d pre-hashed updates (Mops/s, min of 3)", width, depth, total),
		"writers", "atomic_mops", "buffered_mops", "buffered_vs_atomic")
	var atomicByW, bufferedByW []float64
	for _, w := range counts {
		var ac *concurrent.AtomicCountMin
		amops := e29Measure(w, total,
			func() { ac = concurrent.NewAtomicCountMin(width, depth, 1) },
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					ac.AddHash(hs[i], 1)
				}
			}, nil)

		var bc *concurrent.BufferedCountMin
		bmops := e29Measure(w, total,
			func() {
				if bc != nil {
					bc.Close()
				}
				bc = concurrent.NewBufferedCountMin(width, depth, 1)
			},
			func(_, lo, hi int) {
				wr := bc.Writer()
				for i := lo; i < hi; i++ {
					wr.AddHash(hs[i], 1)
				}
				wr.Flush()
			},
			func() { bc.Sync() })
		bc.Close()

		atomicByW = append(atomicByW, amops)
		bufferedByW = append(bufferedByW, bmops)
		cmTbl.AddRow(fmt.Sprintf("%d", w), amops, bmops, bmops/amops)
	}
	last := len(counts) - 1
	atomicScale := atomicByW[last] / atomicByW[0]
	bufferedScale := bufferedByW[last] / bufferedByW[0]

	// --- HLL and blocked Bloom: buffered vs the existing serving
	// variant at the sweep endpoints (1 writer and GOMAXPROCS writers).
	endpoints := []int{1, maxW}
	if maxW == 1 {
		endpoints = []int{1}
	}
	famTbl := core.NewTable(
		fmt.Sprintf("per-family scaling endpoints, %d updates (Mops/s; writers=1 vs writers=%d)", total, maxW),
		"variant", "mops_1w", "mops_maxw", "scaling")
	famRow := func(name string, run func(writers int) float64) {
		m1 := run(endpoints[0])
		mN := m1
		if len(endpoints) > 1 {
			mN = run(endpoints[1])
		}
		famTbl.AddRow(name, m1, mN, mN/m1)
	}
	famRow("hll_sharded(p=14)", func(writers int) float64 {
		var s *concurrent.ShardedHLL
		return e29Measure(writers, total,
			func() { s = concurrent.NewShardedHLL(maxW, 14, 1) },
			func(_, lo, hi int) {
				h := s.Handle()
				h.AddHashBatch(hs[lo:hi])
			}, nil)
	})
	famRow("hll_buffered(p=14)", func(writers int) float64 {
		var b *concurrent.BufferedHLL
		return e29Measure(writers, total,
			func() {
				if b != nil {
					b.Close()
				}
				b = concurrent.NewBufferedHLL(14, 1)
			},
			func(_, lo, hi int) {
				wr := b.Writer()
				for i := lo; i < hi; i++ {
					wr.AddHash(hs[i])
				}
				wr.Flush()
			},
			func() { b.Sync() })
	})
	const bloomBits = 1 << 23 // 1 MiB of filter: past L2, cheap to rebuild per rep
	famRow("blockedbloom_atomic(m=2^23)", func(writers int) float64 {
		var f *concurrent.AtomicBlockedBloom
		return e29Measure(writers, total,
			func() { f = concurrent.NewAtomicBlockedBloom(bloomBits, 7, 1) },
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					f.AddHash(hs[i], hashx.DeriveH2(hs[i]))
				}
			}, nil)
	})
	famRow("blockedbloom_buffered(m=2^23)", func(writers int) float64 {
		var f *concurrent.BufferedBlockedBloom
		return e29Measure(writers, total,
			func() {
				if f != nil {
					f.Close()
				}
				f = concurrent.NewBufferedBlockedBloom(bloomBits, 7, 1)
			},
			func(_, lo, hi int) {
				wr := f.Writer()
				for i := lo; i < hi; i++ {
					wr.AddHash(hs[i], hashx.DeriveH2(hs[i]))
				}
				wr.Flush()
			},
			func() { f.Sync() })
	})

	// --- Staleness: with W writers ingesting and never flushing, a
	// synced read misses exactly the items still in local buffers —
	// provably at most W × WriterBuffer. After an explicit flush the
	// count is exact.
	stWriters := maxW
	if stWriters < 4 {
		stWriters = 4
	}
	stPer := 50_000
	sc := concurrent.NewBufferedCountMin(width, depth, 1)
	var wg sync.WaitGroup
	handles := make([]*concurrent.BufferedCountMinWriter, stWriters)
	for i := range handles {
		handles[i] = sc.Writer()
	}
	for _, wr := range handles {
		wg.Add(1)
		go func(wr *concurrent.BufferedCountMinWriter) {
			defer wg.Done()
			for i := 0; i < stPer; i++ {
				wr.AddHash(hs[i%len(hs)], 1)
			}
		}(wr)
	}
	wg.Wait()
	sc.Sync() // propagation barrier; unflushed writer buffers stay local
	stTotal := uint64(stWriters * stPer)
	missing := stTotal - sc.N()
	bound := uint64(sc.StalenessBound())
	for _, wr := range handles {
		wr.Flush()
	}
	sc.Sync()
	exactN := sc.N()
	sc.Close()

	stTbl := core.NewTable(
		fmt.Sprintf("read staleness mid-ingest: %d writers x %d-item buffers, no flush", stWriters, sc.WriterBuffer()),
		"metric", "value")
	stTbl.AddRow("items ingested", float64(stTotal))
	stTbl.AddRow("visible before flush", float64(stTotal-missing))
	stTbl.AddRow("missing (buffered locally)", float64(missing))
	stTbl.AddRow("bound writers x buffer", float64(bound))
	stTbl.AddRow("visible after flush+sync", float64(exactN))

	notes := []string{
		e29ScalingNote(maxW, bufferedScale, atomicScale),
		fmt.Sprintf("mid-ingest staleness %d items ≤ bound %d (%s); exact after flush+sync: %s",
			missing, bound, metStr(missing <= bound), metStr(exactN == stTotal)),
		"buffered timings include final flush and full propagation sync — no deferred work is hidden off the clock",
	}
	if maxW == 1 {
		notes = append(notes, "scaling acceptance qualified: GOMAXPROCS=1 on this host, so every sweep degenerates to one writer and the atomic-vs-buffered gap shows only per-update overhead, not contention relief; run on a ≥4-core machine (or the CI scaling-smoke artifact) for the scaling claim")
	}
	return &Result{
		ID:     "E29",
		Title:  "core-local buffered ingest vs shared-atomic under multi-writer load",
		Claim:  "the paper's production pathway — sketches absorbing heavy multi-writer traffic — needs ingest that scales with cores: local-buffer/global-propagation writers (Fast Concurrent Data Sketches) keep updates core-local and scale near-linearly where shared-memory atomics serialize on hot cache lines, at the price of a quantified, bounded read staleness",
		Tables: []*core.Table{cmTbl, famTbl, stTbl},
		Notes:  notes,
	}
}

// e29ScalingNote states the two scaling bars. They need at least 4
// writers to mean anything, so with fewer the note says they were not
// measured rather than passing them.
func e29ScalingNote(maxW int, bufferedScale, atomicScale float64) string {
	verdict := func(ok bool) string {
		if maxW < 4 {
			return fmt.Sprintf("not measured (%d writers)", maxW)
		}
		return metStr(ok)
	}
	return fmt.Sprintf("buffered Count-Min scaling 1→%d writers: %.2fx (acceptance ≥3x on ≥4 cores: %s); atomic: %.2fx (expected <1.5x: %s)",
		maxW, bufferedScale, verdict(bufferedScale >= 3), atomicScale, verdict(atomicScale < 1.5))
}
