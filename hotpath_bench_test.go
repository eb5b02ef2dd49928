package sketch_test

// Hot-path microbenchmarks under `go test -bench Hot -benchmem`. The
// suite itself lives in internal/benchrun so `sketchbench -bench` can
// run the identical code and serialize the results to BENCH_1.json;
// see that package's doc comment for the fixed-working-set methodology.

import (
	"testing"

	"repro/internal/benchrun"
	"repro/internal/cardinality"
)

func BenchmarkHot(b *testing.B) {
	for _, nb := range benchrun.Benchmarks() {
		b.Run(nb.Name, nb.F)
	}
}

// hllPair returns two p=14 HLLs over overlapping 100k-item streams, the
// register density of a production sketch well past linear counting.
func hllPair() (*cardinality.HLL, *cardinality.HLL) {
	a, b := cardinality.NewHLL(14, 1), cardinality.NewHLL(14, 1)
	for i := uint64(0); i < 100_000; i++ {
		a.AddUint64(i)
		b.AddUint64(i + 50_000)
	}
	return a, b
}

// BenchmarkHLLMerge measures one register-wise max union at p=14, the
// step every coordinator tree-merge and sharded read repeats.
func BenchmarkHLLMerge(b *testing.B) {
	dst, src := hllPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLLEstimate measures one full-register estimate at p=14.
func BenchmarkHLLEstimate(b *testing.B) {
	h, _ := hllPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Estimate()
	}
}
