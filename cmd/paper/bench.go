package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/tables"
)

// benchEntry is one serial-vs-parallel wall-time comparison; the other
// bench reports reuse the schema, and benchgate ignores fields it does
// not know.
type benchEntry struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	SerialNS   int64   `json:"serial_ns"`
	ParallelNS int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// GoMaxProcs/NumCPU record the host shape this entry was measured
	// under; 0 (older reports) means "use the report-level values".
	// benchgate skips entries whose host shape differs from the baseline
	// instead of failing them — throughput across different core counts
	// is not comparable.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// LoopsPerSec is the streamed-scheduling throughput (loops scheduled
	// per second of wall time, generation included) of the throughput
	// benchmark's entries.
	LoopsPerSec float64 `json:"loops_per_sec,omitempty"`
	// Failed counts corpus loops the scheduler gave up on (throughput
	// entries; the count is deterministic per corpus).
	Failed int `json:"failed,omitempty"`
	// ReqPerSec, P50US and P99US describe the serve load test's entries:
	// HTTP requests completed per second of wall time and the request
	// latency quantiles in microseconds.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	P50US     int64   `json:"p50_us,omitempty"`
	P99US     int64   `json:"p99_us,omitempty"`
}

// benchReport is the BENCH_parallel.json schema: the host's parallelism
// plus one entry per harness (Table 5, Table 6, full-pipeline reduction,
// reduction cache). It seeds the bench trajectory: future PRs append
// runs of the same schema to track the parallel layer over time.
type benchReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Loops       int          `json:"loops"`
	Entries     []benchEntry `json:"entries"`
}

func timeIt(fn func()) int64 {
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

func entry(name string, workers int, serial, par func()) benchEntry {
	e := benchEntry{Name: name, Workers: workers,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	e.SerialNS = timeIt(serial)
	e.ParallelNS = timeIt(par)
	if e.ParallelNS > 0 {
		e.Speedup = float64(e.SerialNS) / float64(e.ParallelNS)
	}
	return e
}

// runBenchJSON measures the serial (workers=1) against the parallel
// (workers=N) paths of the three heavy pipelines and writes the report.
// Output of the measured computations is discarded; determinism of the
// parallel paths is covered by tests, this harness only times them.
func runBenchJSON(path string, workers, loopLimit int) error {
	m := machines.Cydra5()
	bench := tables.BenchmarkLoops(m)
	if loopLimit > 0 && loopLimit < len(bench) {
		bench = bench[:loopLimit]
	}
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Loops:       len(bench),
	}

	fmt.Fprintf(os.Stderr, "paper: bench-json: %d loops, %d workers\n", len(bench), workers)

	rep.Entries = append(rep.Entries, entry("table5-loop-harness", workers,
		func() { tables.ComputeTable5Workers(m, bench, 6, 1) },
		func() { tables.ComputeTable5Workers(m, bench, 6, workers) }))

	reps := tables.PaperRepresentations(m)
	rep.Entries = append(rep.Entries, entry("table6-loop-harness", workers,
		func() { tables.ComputeTable6Workers(m, bench, reps, 1) },
		func() { tables.ComputeTable6Workers(m, bench, reps, workers) }))

	// Full reduction pipeline, bypassing the cache so both sides do the
	// work (the paper's Tables 1-4 workload across all four machines).
	reduceAll := func(w int) {
		for _, name := range []string{"mips", "alpha", "cydra5", "cydra5-subset"} {
			e := machines.ByName(name).Expand()
			for _, obj := range []core.Objective{
				{Kind: core.ResUses},
				{Kind: core.KCycleWord, K: 3},
			} {
				res := core.ReduceParallel(e, obj, w)
				if err := res.Verify(); err != nil {
					panic(err)
				}
			}
		}
	}
	rep.Entries = append(rep.Entries, entry("reduction-pipeline", workers,
		func() { reduceAll(1) },
		func() { reduceAll(workers) }))

	// Reduction cache: cold miss versus warm hit on a fresh cache.
	cache := core.NewCache()
	e := machines.Cydra5().Expand()
	obj := core.Objective{Kind: core.ResUses}
	rep.Entries = append(rep.Entries, entry("reduction-cache-hit", workers,
		func() { cache.Reduce(e, obj, workers).Verify() },
		func() { cache.Reduce(e, obj, workers).Verify() }))

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, e := range rep.Entries {
		fmt.Fprintf(os.Stderr, "paper: bench-json: %-22s serial %8.1fms  parallel %8.1fms  speedup %.2fx\n",
			e.Name, float64(e.SerialNS)/1e6, float64(e.ParallelNS)/1e6, e.Speedup)
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(rep.Entries))
	return nil
}
