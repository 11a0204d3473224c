// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure, plus the ablations called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Work-unit metrics (the paper's machine-independent measure) are
// reported alongside ns/op via ReportMetric.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
	"repro/internal/tables"
)

// --- Figure 1 / Figure 3: reducing the example machine ---

func BenchmarkFigure1ReduceExample(b *testing.B) {
	e := machines.Example().Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Reduce(e, core.Objective{Kind: core.ResUses})
		if res.NumResources() != 2 {
			b.Fatal("wrong reduction")
		}
	}
}

// --- Tables 1-4: reducing the paper's machines (the paper: "our
// algorithm reduced this original Cydra 5 machine description in less
// than 11 minutes on a SPARC-20") ---

func benchReduce(b *testing.B, m *resmodel.Machine, obj core.Objective) {
	e := m.Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Reduce(e, obj)
		if res.NumResources() == 0 {
			b.Fatal("empty reduction")
		}
	}
}

func BenchmarkTable1ReduceCydra5(b *testing.B) {
	for _, obj := range []core.Objective{
		{Kind: core.ResUses},
		{Kind: core.KCycleWord, K: 1},
		{Kind: core.KCycleWord, K: 3},
	} {
		b.Run(obj.String(), func(b *testing.B) { benchReduce(b, machines.Cydra5(), obj) })
	}
}

func BenchmarkTable2ReduceCydra5Subset(b *testing.B) {
	benchReduce(b, machines.Cydra5Subset(), core.Objective{Kind: core.ResUses})
}

func BenchmarkTable3ReduceAlpha(b *testing.B) {
	benchReduce(b, machines.Alpha21064(), core.Objective{Kind: core.ResUses})
}

func BenchmarkTable4ReduceMIPS(b *testing.B) {
	benchReduce(b, machines.MIPS(), core.Objective{Kind: core.ResUses})
}

// --- Headline (abstract): "4 to 7 times faster detection of resource
// contentions". Raw check throughput against a realistically filled
// Modulo Reservation Table, per machine and representation. ---

type headlineRep struct {
	name string
	desc *resmodel.Expanded
	k    int // 0 = discrete
}

func headlineReps(b *testing.B, m *resmodel.Machine) []headlineRep {
	e := m.Expand()
	ru := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := ru.Verify(); err != nil {
		b.Fatal(err)
	}
	k := query.MaxCyclesPerWord(ru.NumResources(), 64)
	kw := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: k})
	if err := kw.Verify(); err != nil {
		b.Fatal(err)
	}
	if k2 := query.MaxCyclesPerWord(kw.NumResources(), 64); k2 < k {
		k = k2
	}
	return []headlineRep{
		{"original-discrete", e, 0},
		{"reduced-discrete", ru.Reduced, 0},
		{fmt.Sprintf("reduced-bitvec%d", k), kw.Reduced, k},
	}
}

func benchChecks(b *testing.B, rep headlineRep, ii int) {
	var mod query.Module
	if rep.k == 0 {
		mod = query.NewDiscrete(rep.desc, ii)
	} else {
		bv, err := query.NewBitvector(rep.desc, rep.k, 64, ii)
		if err != nil {
			b.Fatal(err)
		}
		mod = bv
	}
	// Fill roughly half the MRT deterministically.
	id := 0
	for cyc := 0; cyc < 3*ii; cyc++ {
		op := (cyc * 13) % len(rep.desc.Ops)
		if mod.Schedulable(op) && mod.Check(op, cyc) {
			mod.Assign(op, cyc, id)
			id++
		}
	}
	mod.Counters().Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := i % len(rep.desc.Ops)
		mod.Check(op, i%ii)
	}
	b.StopTimer()
	c := mod.Counters()
	b.ReportMetric(c.CheckPerCall(), "work/check")
}

func BenchmarkHeadlineCheck(b *testing.B) {
	for _, name := range []string{"mips", "alpha", "cydra5"} {
		m := machines.ByName(name)
		for _, rep := range headlineReps(b, m) {
			b.Run(name+"/"+rep.name, func(b *testing.B) {
				benchChecks(b, rep, 24)
			})
		}
	}
}

// --- Table 5: scheduling the loop benchmark ---

func BenchmarkTable5Scheduler(b *testing.B) {
	m := machines.Cydra5()
	e := m.Expand()
	loops := benchLoops(b, m, 150)
	for _, budget := range []int{2, 6} { // 2N is the paper's ablation
		b.Run(fmt.Sprintf("budget%dN", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range loops {
					r := sched.Schedule(g, m, func(ii int) query.Module {
						return query.NewDiscrete(e, ii)
					}, sched.Config{BudgetRatio: budget})
					if !r.OK {
						b.Fatal("schedule failed")
					}
				}
			}
		})
	}
}

// --- Table 6: the contention query module inside the scheduler, per
// representation. ns/op is the paper's "2.9 times faster" measurement on
// this host; work/call is its machine-independent counterpart. ---

func BenchmarkTable6QueryModule(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 150)
	for _, rep := range tables.PaperRepresentations(m) {
		b.Run(rep.Label, func(b *testing.B) {
			var work, calls int64
			for i := 0; i < b.N; i++ {
				work, calls = 0, 0
				for _, g := range loops {
					var ctrs []*query.Counters
					factory := rep.Factory()
					r := sched.Schedule(g, m, func(ii int) query.Module {
						mod := factory(ii)
						ctrs = append(ctrs, mod.Counters())
						return mod
					}, sched.DefaultConfig())
					if !r.OK {
						b.Fatal("schedule failed")
					}
					for _, c := range ctrs {
						work += c.TotalWork()
						calls += c.TotalCalls()
					}
				}
			}
			if calls > 0 {
				b.ReportMetric(float64(work)/float64(calls), "work/call")
			}
		})
	}
}

// --- Related-work comparison (Tables 3-4 discussion): cycle-ordered list
// scheduling through the reservation-table module versus the forward
// automaton, on the automaton's home turf. ---

func BenchmarkFSAvsTables(b *testing.B) {
	m := machines.MIPS()
	e := m.Expand()
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := red.Verify(); err != nil {
		b.Fatal(err)
	}
	fsa, err := automaton.BuildForward(red.Reduced, automaton.DefaultLimit())
	if err != nil {
		b.Fatal(err)
	}
	dags, err := loopgen.GenerateDAGs(m, loopgen.DefaultDAG(m))
	if err != nil {
		b.Fatal(err)
	}
	dags = dags[:40]

	run := func(b *testing.B, mk func() sched.Issuer) {
		for i := 0; i < b.N; i++ {
			for _, g := range dags {
				if _, err := sched.ListSchedule(g, e, mk()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("module-original", func(b *testing.B) {
		run(b, func() sched.Issuer { return &sched.ModuleIssuer{M: query.NewDiscrete(e, 0)} })
	})
	b.Run("module-reduced", func(b *testing.B) {
		run(b, func() sched.Issuer { return &sched.ModuleIssuer{M: query.NewDiscrete(red.Reduced, 0)} })
	})
	b.Run("fsa-reduced", func(b *testing.B) {
		run(b, func() sched.Issuer { return &sched.WalkerIssuer{W: fsa.Walk()} })
	})
}

// --- Related-work comparison (Section 2): the UNRESTRICTED scheduling
// model, where operations are inserted in arbitrary order. Reservation
// tables handle insertion in O(usages); the automaton pair must store
// per-cycle states and propagate every insertion through them. ---

func BenchmarkUnrestrictedInsertion(b *testing.B) {
	m := machines.MIPS()
	e := m.Expand()
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := red.Verify(); err != nil {
		b.Fatal(err)
	}
	pair, err := automaton.NewPairModule(red.Reduced, automaton.DefaultLimit())
	if err != nil {
		b.Fatal(err)
	}
	dags, err := loopgen.GenerateDAGs(m, loopgen.DefaultDAG(m))
	if err != nil {
		b.Fatal(err)
	}
	dags = dags[:25]
	run := func(b *testing.B, mk func() query.Module) {
		var work, calls int64
		for i := 0; i < b.N; i++ {
			work, calls = 0, 0
			for _, g := range dags {
				mod := mk()
				if _, err := sched.OperationDriven(g, e, mod); err != nil {
					b.Fatal(err)
				}
				work += mod.Counters().TotalWork()
				calls += mod.Counters().TotalCalls()
			}
		}
		if calls > 0 {
			b.ReportMetric(float64(work)/float64(calls), "work/call")
		}
	}
	b.Run("tables-reduced-discrete", func(b *testing.B) {
		run(b, func() query.Module { return query.NewDiscrete(red.Reduced, 0) })
	})
	b.Run("tables-reduced-bitvec", func(b *testing.B) {
		k := query.MaxCyclesPerWord(red.NumResources(), 64)
		run(b, func() query.Module {
			mod, err := query.NewBitvector(red.Reduced, k, 64, 0)
			if err != nil {
				b.Fatal(err)
			}
			return mod
		})
	})
	b.Run("fsa-pair", func(b *testing.B) {
		run(b, func() query.Module { pair.Reset(); return pair })
	})
}

// --- Ablation: 32-bit versus 64-bit words for the bitvector module. ---

func BenchmarkAblationWordSize(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 60)
	e := m.Expand()
	for _, cfg := range []struct {
		bits int
	}{{32}, {64}} {
		ru := core.Reduce(e, core.Objective{Kind: core.ResUses})
		k := query.MaxCyclesPerWord(ru.NumResources(), cfg.bits)
		if k < 1 {
			b.Skipf("%d resources exceed %d-bit word", ru.NumResources(), cfg.bits)
		}
		kw := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: k})
		if k2 := query.MaxCyclesPerWord(kw.NumResources(), cfg.bits); k2 < k {
			k = k2
		}
		b.Run(fmt.Sprintf("%dbit-k%d", cfg.bits, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range loops {
					r := sched.Schedule(g, m, func(ii int) query.Module {
						mod, err := query.NewBitvector(kw.Reduced, k, cfg.bits, ii)
						if err != nil {
							b.Fatal(err)
						}
						return mod
					}, sched.DefaultConfig())
					if !r.OK {
						b.Fatal("schedule failed")
					}
				}
			}
		})
	}
}

// --- Ablation: objective choice (res-uses description driven through the
// bitvector module versus the word-optimized description). ---

func BenchmarkAblationObjective(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 60)
	e := m.Expand()
	ru := core.Reduce(e, core.Objective{Kind: core.ResUses})
	k := query.MaxCyclesPerWord(ru.NumResources(), 64)
	kw := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: k})
	if k2 := query.MaxCyclesPerWord(kw.NumResources(), 64); k2 < k {
		k = k2
	}
	for _, tc := range []struct {
		name string
		desc *resmodel.Expanded
	}{{"res-uses-desc", ru.Reduced}, {"word-objective-desc", kw.Reduced}} {
		if query.MaxCyclesPerWord(len(tc.desc.Resources), 64) < k {
			continue
		}
		b.Run(tc.name, func(b *testing.B) {
			var work, calls int64
			for i := 0; i < b.N; i++ {
				work, calls = 0, 0
				for _, g := range loops {
					var ctrs []*query.Counters
					r := sched.Schedule(g, m, func(ii int) query.Module {
						mod, err := query.NewBitvector(tc.desc, k, 64, ii)
						if err != nil {
							b.Fatal(err)
						}
						ctrs = append(ctrs, mod.Counters())
						return mod
					}, sched.DefaultConfig())
					if !r.OK {
						b.Fatal("schedule failed")
					}
					for _, c := range ctrs {
						work += c.TotalWork()
						calls += c.TotalCalls()
					}
				}
			}
			if calls > 0 {
				b.ReportMetric(float64(work)/float64(calls), "work/call")
			}
		})
	}
}

// --- Ablation: fast check-with-alt (alternative-union words) versus the
// per-alternative fallback, on the alternative-heavy Cydra 5 benchmark. ---

func BenchmarkAblationFastAlt(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 60)
	e := m.Expand()
	kw := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: 3})
	if err := kw.Verify(); err != nil {
		b.Fatal(err)
	}
	k := query.MaxCyclesPerWord(kw.NumResources(), 64)
	for _, fast := range []bool{false, true} {
		name := "fallback"
		if fast {
			name = "fast-alt"
		}
		b.Run(name, func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				work = 0
				for _, g := range loops {
					var ctrs []*query.Counters
					r := sched.Schedule(g, m, func(ii int) query.Module {
						mod, err := query.NewBitvector(kw.Reduced, k, 64, ii)
						if err != nil {
							b.Fatal(err)
						}
						if fast {
							mod.EnableFastAlt()
						}
						ctrs = append(ctrs, mod.Counters())
						return mod
					}, sched.DefaultConfig())
					if !r.OK {
						b.Fatal("schedule failed")
					}
					for _, c := range ctrs {
						work += c.TotalWork()
					}
				}
			}
			b.ReportMetric(float64(work), "work-units")
		})
	}
}

// --- Parallel execution layer: the worker-pool harness and reduction
// pipeline at workers=1 (the serial reference) versus GOMAXPROCS. On a
// single-core host both sub-benchmarks measure the same work, so a
// speedup only means something on a multi-core host. ---

func parallelWorkerCounts() []int {
	n := parallel.Workers(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

func BenchmarkTable5Parallel(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 150)
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables.ComputeTable5Workers(m, loops, 6, w)
			}
		})
	}
}

func BenchmarkTable6Parallel(b *testing.B) {
	m := machines.Cydra5()
	loops := benchLoops(b, m, 60)
	reps := tables.PaperRepresentations(m)[:2]
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables.ComputeTable6Workers(m, loops, reps, w)
			}
		})
	}
}

func BenchmarkReductionPipelineParallel(b *testing.B) {
	e := machines.Cydra5().Expand()
	obj := core.Objective{Kind: core.ResUses}
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.ReduceParallel(e, obj, w)
				if err := res.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReductionCacheHit measures the memo fast path: everything a
// repeated reduction costs once the content-keyed cache holds the entry
// (one fingerprint of the full Cydra 5 description plus a map lookup).
func BenchmarkReductionCacheHit(b *testing.B) {
	c := core.NewCache()
	e := machines.Cydra5().Expand()
	obj := core.Objective{Kind: core.ResUses}
	c.Reduce(e, obj, 1) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Reduce(e, obj, 1) == nil {
			b.Fatal("cache miss")
		}
	}
}

// --- Figure 4 / public API surface: end-to-end reduce through the facade.
// repro.Reduce is memoized by the process-wide reduction cache, so after
// the first iteration this measures the cached facade path. ---

func BenchmarkPublicAPIReduce(b *testing.B) {
	m := repro.BuiltinMachine("cydra5-subset")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Reduce(m, repro.Objective{Kind: repro.ResUses}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLoops(b *testing.B, m *resmodel.Machine, n int) []*ddg.Graph {
	b.Helper()
	cfg := loopgen.Default()
	cfg.Loops = n
	loops, err := loopgen.Generate(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return loops
}
