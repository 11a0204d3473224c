// Command paper regenerates every table and figure of Eichenberger &
// Davidson, "A Reduced Multipipeline Machine Description that Preserves
// Scheduling Constraints" (PLDI 1996).
//
// Usage:
//
//	paper -all
//	paper -table 1        # Tables 1, 2, 3, 4, 5 or 6
//	paper -fig 1          # Figures 1, 3 or 4
//	paper -summary        # headline numbers of the abstract
//	paper -table 5 -budget 2   # Table 5 ablation at budget 2N
//	paper -loops 300      # subsample the 1327-loop benchmark (faster)
//	paper -table 6 -parallel 8 # fan per-loop scheduling across 8 workers
//	paper -bench-reduction BENCH_reduction.json  # per-stage reduction wall-time report
//	paper -bench-throughput BENCH_throughput.json  # streamed-corpus scheduler throughput
//	paper -bench-throughput BENCH_throughput.json -corpus 100000 -bench-workers 1,2,4,8
//	paper -bench-serve BENCH_serve.json -bench-workers 1,8  # mdserve load test (req/s, p50/p99)
//	paper -opt-gap OPTGAP.md  # exact-vs-IMS optimality-gap corpus report
//	paper -bench-opt BENCH_opt.json -bench-workers 1,8  # exact-scheduler wall time
//	paper -table 6 -metrics metrics.json   # emit a machine-readable profile
//	paper -bench-throughput out.json -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -parallel fans the per-loop scheduling of Tables 5/6 and the kernel
// report across a bounded worker pool (0 = GOMAXPROCS); output is
// byte-identical at every worker count. Each machine is reduced at most
// once per process regardless of how many tables request it (reduction
// cache).
//
// -metrics FILE enables the observability layer for the whole run and
// writes a JSON snapshot of every counter and histogram — per-operation
// query counts and probe lengths, IMS budget/eviction statistics,
// generating-set and branch-and-bound sizes, reduction-cache hits, and
// worker-pool shape — alongside the paper tables ("-" writes to
// stdout). The emitted JSON is validated before the command exits.
// Metrics change no output and, disabled, cost the query hot path
// nothing.
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// whole run (any mode; the -bench-* modes are the intended subjects —
// `make profile` captures the headline throughput run). The CPU profile
// covers everything after flag parsing; the heap profile is written at
// exit after a final GC.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tables"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate table 1-6")
		fig       = flag.Int("fig", 0, "regenerate figure 1, 3 or 4")
		summary   = flag.Bool("summary", false, "print the headline summary")
		memory    = flag.Bool("memory", false, "print measured reserved-table storage per representation")
		kernels   = flag.Bool("kernels", false, "software-pipeline the named Livermore-style kernels")
		all       = flag.Bool("all", false, "regenerate everything")
		budget    = flag.Int("budget", 6, "scheduling-decision budget ratio for Table 5")
		loops     = flag.Int("loops", 0, "restrict the loop benchmark to the first N loops (0 = all 1327)")
		nParallel = flag.Int("parallel", 0, "worker-pool size for per-loop scheduling (0 = GOMAXPROCS, 1 = serial)")
		benchRed  = flag.String("bench-reduction", "", "measure per-stage reduction wall time and write the report to this file (e.g. BENCH_reduction.json)")
		benchThru = flag.String("bench-throughput", "", "stream a stratified corpus through per-worker scheduler arenas and write the throughput report to this file (e.g. BENCH_throughput.json)")
		benchSrv  = flag.String("bench-serve", "", "load-test the mdserve handler stack (batch + session streams) and write the report to this file (e.g. BENCH_serve.json)")
		optGap    = flag.String("opt-gap", "", "schedule the stratified corpus with the exact searcher vs IMS and write the optimality-gap report to this file (e.g. OPTGAP.md)")
		benchOpt  = flag.String("bench-opt", "", "time the exact scheduler against IMS on the stratified corpus and write the report to this file (e.g. BENCH_opt.json)")
		corpus    = flag.Int("corpus", 100000, "streamed-corpus size for -bench-throughput")
		benchWkrs = flag.String("bench-workers", "1,2,4,8", "comma-separated worker counts for -bench-throughput")
		metrics   = flag.String("metrics", "", "enable the observability layer and write a JSON metrics snapshot to this file (\"-\" = stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run (any mode, e.g. -bench-throughput) to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	workers := parallel.Workers(*nParallel)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
		}()
	}
	if *metrics != "" {
		obs.Default().SetEnabled(true)
		defer func() {
			if err := writeMetrics(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
		}()
	}
	if *benchRed != "" {
		if err := runBenchReduction(*benchRed, workers); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if *benchThru != "" {
		wl, err := parseWorkersList(*benchWkrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(2)
		}
		if err := runBenchThroughput(*benchThru, *corpus, wl); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if *benchSrv != "" {
		wl, err := parseWorkersList(*benchWkrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(2)
		}
		if err := runBenchServe(*benchSrv, wl); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if *optGap != "" {
		if err := runOptGap(*optGap, workers, *loops); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if *benchOpt != "" {
		wl, err := parseWorkersList(*benchWkrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(2)
		}
		if err := runBenchOpt(*benchOpt, wl, *loops); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if !*all && *table == 0 && *fig == 0 && !*summary && !*memory && !*kernels {
		flag.Usage()
		os.Exit(2)
	}

	if *all || *fig == 1 {
		fmt.Println(tables.Figure1())
	}
	if *all || *fig == 3 {
		fmt.Println(tables.Figure3())
	}
	if *all || *table == 1 {
		fmt.Println(tables.ComputeReduction(machines.Cydra5()).
			Render("Table 1: Results for the Cydra 5"))
	}
	if *all || *table == 2 {
		fmt.Println(tables.ComputeReduction(machines.Cydra5Subset()).
			Render("Table 2: Results for a subset of the Cydra 5"))
	}
	if *all || *table == 3 {
		fmt.Println(tables.ComputeReduction(machines.Alpha21064()).
			Render("Table 3: Results for the DEC Alpha 21064"))
	}
	if *all || *table == 4 {
		fmt.Println(tables.ComputeReduction(machines.MIPS()).
			Render("Table 4: Results for the MIPS R3000/R3010"))
	}
	if *all || *table == 5 || *table == 6 {
		m := machines.Cydra5()
		bench := tables.BenchmarkLoops(m)
		if *loops > 0 && *loops < len(bench) {
			bench = bench[:*loops]
		}
		if *all || *table == 5 {
			fmt.Println(tables.ComputeTable5Workers(m, bench, *budget, workers).Render())
		}
		if *all || *table == 6 {
			reps := tables.PaperRepresentations(m)
			fmt.Println(tables.ComputeTable6Workers(m, bench, reps, workers).Render())
		}
	}
	if *all || *fig == 4 {
		fmt.Println(tables.Figure4())
	}
	if *all || *summary {
		fmt.Println(tables.Summary())
	}
	if *all || *memory {
		fmt.Println(tables.RenderMemory(tables.ComputeMemory(
			[]string{"mips", "alpha", "cydra5", "parisc"}, 24)))
	}
	if *all || *kernels {
		rows, err := tables.ComputeKernelsWorkers(machines.Cydra5(), workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		fmt.Println(tables.RenderKernels(rows))
	}
}
