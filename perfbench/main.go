// Command perfbench is the repository's end-to-end benchmark. It drives an
// in-process sketchd, or a 3-shard cluster behind the coordinator, over
// loopback HTTP from one load-generating process, checks every answer
// against an oracle derived from the seed, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload mixed_small --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that records spans around every call into the program (written to
// .bench_build/traces) and times each layer's public functions on the same
// generated inputs, giving the per-layer metrics and the cost ladder.
// Workloads, metrics and their bounds are listed in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
		return
	}
	os.Exit(run())
}

// run runs one workload and returns the exit code.
func run() int {
	workload := flag.String("workload", "", "mixed_small or cluster_query")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	workloads := map[string]func(*bench) error{
		"mixed_small":   func(b *bench) error { return b.runSingle(mixedSmall) },
		"cluster_query": func(b *bench) error { return b.runCluster(clusterQuery) },
	}
	runWorkload := workloads[*workload]
	if runWorkload == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	defer startSpinners().stop()
	b := newBench(*workload, *seed, *seconds, *trace == 1, dir)
	if err := runWorkload(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		tdir := filepath.Join(".bench_build", "traces")
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(tdir, 0o755); err == nil {
			err = b.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if err := b.report(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the per-operation counts, findings and metrics, then the
// result object as the last line.
func (b *bench) report() error {
	var attempted, failed int64
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", b.workload, b.seed, b.seconds, b.traced)
	fmt.Printf("%-13s %10s %8s %8s %10s %8s\n", "op", "attempted", "failed", "status", "transport", "bound")
	for _, n := range opNames {
		o := b.ops[n]
		if o.attempted.Load() == 0 {
			continue
		}
		attempted += o.attempted.Load()
		failed += o.failed()
		fmt.Printf("%-13s %10d %8d %8d %10d %8d\n", n, o.attempted.Load(), o.failed(),
			o.status.Load(), o.transport.Load(), o.bound.Load())
	}
	for _, p := range b.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	for _, name := range b.order {
		m := b.metrics[name]
		fmt.Printf("%-48s %14.6g %s\n", name, m.Value, m.Unit)
	}
	// A false negative makes Bloom's ratio infinite; JSON has no infinity.
	for name, m := range b.metrics {
		if m.Value > bloomRatio {
			m.Value = bloomRatio
			b.metrics[name] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0 && failed == 0, attempted, failed, b.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
