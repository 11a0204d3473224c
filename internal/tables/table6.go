package tables

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// Representation is one column of Table 6: a machine description plus an
// internal representation for the reserved table.
type Representation struct {
	Label string
	// Desc is the (original or reduced) expanded description.
	Desc *resmodel.Expanded
	// Bitvector selects the packed representation; K and WordBits apply
	// only then.
	Bitvector bool
	K         int
	WordBits  int
}

// Factory returns the module factory for this representation.
func (r Representation) Factory() sched.ModuleFactory {
	if !r.Bitvector {
		return func(ii int) query.Module { return query.NewDiscrete(r.Desc, ii) }
	}
	return func(ii int) query.Module {
		m, err := query.NewBitvector(r.Desc, r.K, r.WordBits, ii)
		if err != nil {
			panic(fmt.Sprintf("tables: %s: %v", r.Label, err))
		}
		return m
	}
}

// PaperRepresentations builds the five columns of Table 6 for a machine:
// the original discrete description, the res-uses reduction (discrete),
// and the 1-, k32- and k64-cycle-word bitvector reductions.
func PaperRepresentations(m *resmodel.Machine) []Representation {
	e := m.Expand()
	reps := []Representation{{Label: "original", Desc: e}}
	ru := core.CachedReduce(e, core.Objective{Kind: core.ResUses})
	mustExact(ru)
	reps = append(reps, Representation{Label: "res-uses", Desc: ru.Reduced})

	rRed := ru.NumResources()
	if rRed == 0 {
		rRed = 1
	}
	addWord := func(k, bits int) {
		obj := core.Objective{Kind: core.KCycleWord, K: k}
		res := core.CachedReduce(e, obj)
		mustExact(res)
		// The description's own resource count bounds the packing.
		rr := res.NumResources()
		if rr == 0 {
			rr = 1
		}
		kk := k
		if max := bits / rr; kk > max {
			kk = max
		}
		if kk < 1 {
			kk = 1
		}
		reps = append(reps, Representation{
			Label:     fmt.Sprintf("%d-cycle-word (%db)", k, bits),
			Desc:      res.Reduced,
			Bitvector: true,
			K:         kk,
			WordBits:  bits,
		})
	}
	addWord(1, 32)
	if k32 := 32 / rRed; k32 > 1 {
		addWord(k32, 32)
	}
	if k64 := 64 / rRed; k64 > 32/rRed {
		addWord(k64, 64)
	}
	return reps
}

func mustExact(r *core.Result) {
	if err := r.Verify(); err != nil {
		panic(err)
	}
}

// FuncRow is the measured work-units-per-call of one basic function
// across all representations.
type FuncRow struct {
	Name    string
	PerCall []float64
	// Freq is the function's share of basic-function calls (identical
	// across representations since schedules are identical).
	Freq float64
}

// Table6 reproduces "Performance of the basic functions (in work units
// per call)" plus the Section 8 scheduler statistics.
type Table6 struct {
	Labels   []string
	Rows     []FuncRow // check, assign&free, free
	Weighted []float64
	// Scheduler statistics (Section 8).
	ChecksPerDecision  float64
	CheckDistribution  map[string]float64 // bucket -> % of decisions
	EvictingAFPct      float64            // % of assign&free calls that unscheduled
	ResourceReversePct float64            // % of reversals due to resources
}

// loopStats is the per-loop slice of Table 6's measurements: the query
// counters the loop's Schedule call accumulated (an arena snapshot
// delta), plus the scheduler statistics of its result. Each worker
// writes only its own loop's slot, and the slots are merged serially in
// loop order, so the aggregation is race-free and reproduces the serial
// iteration exactly.
type loopStats struct {
	ctrs         query.Counters
	reversed     int
	resourceRev  int
	checksPerDec []int
}

// ComputeTable6 schedules the loop benchmark once per representation and
// measures the contention query module.
func ComputeTable6(m *resmodel.Machine, loops []*ddg.Graph, reps []Representation) *Table6 {
	return ComputeTable6Workers(m, loops, reps, 1)
}

// ComputeTable6Workers is ComputeTable6 with each representation's
// per-loop Schedule calls fanned across a bounded worker pool (workers
// < 1 selects GOMAXPROCS). Each worker schedules through its own
// sched.Arena — modules are built once per worker and reset between
// loops, never shared — and per-loop counter attribution differences
// the arena's monotone counter snapshots around the call. The rendered
// table is byte-identical at every worker count and to the historical
// fresh-module-per-loop runs.
func ComputeTable6Workers(m *resmodel.Machine, loops []*ddg.Graph, reps []Representation, workers int) *Table6 {
	t := &Table6{CheckDistribution: map[string]float64{}}
	for ri, rep := range reps {
		t.Labels = append(t.Labels, rep.Label)
		factory := rep.Factory()
		stats := make([]loopStats, len(loops))
		parallel.ForEachState(len(loops), parallel.Workers(workers),
			func() *sched.Arena { return sched.NewArena(factory) },
			func(a *sched.Arena, i int) {
				g := loops[i]
				c0 := a.Counters()
				r := a.Schedule(g, m, sched.DefaultConfig())
				if !r.OK {
					panic(fmt.Sprintf("tables: %s: %s failed", rep.Label, g.Name))
				}
				s := &stats[i]
				s.ctrs = a.Counters()
				s.ctrs.Sub(&c0)
				s.reversed = r.Reversed
				s.resourceRev = r.ResourceEvictions
				s.checksPerDec = r.ChecksPerDecision
			})

		total := query.Counters{}
		reversed, resourceRev := 0, 0
		var checksPerDec []int
		for i := range stats {
			total.AddFrom(&stats[i].ctrs)
			reversed += stats[i].reversed
			resourceRev += stats[i].resourceRev
			checksPerDec = append(checksPerDec, stats[i].checksPerDec...)
		}
		// The scheduler's slot search answers through range queries;
		// FirstFreeCycles is the number of per-cycle probes the
		// equivalent naive loop would have issued and FirstFreeWork their
		// work units, so folding them into the check row keeps Table 6's
		// res-uses/word-uses-per-check metric — and the frequency column
		// — in the paper's per-check currency.
		checkCalls := total.CheckCalls + total.FirstFreeCycles
		checkWork := total.CheckWork + total.FirstFreeWork
		if ri == 0 {
			t.Rows = []FuncRow{{Name: "check"}, {Name: "assign&free"}, {Name: "free"}}
			calls := float64(checkCalls + total.AssignFreeCalls + total.FreeCalls)
			t.Rows[0].Freq = 100 * float64(checkCalls) / calls
			t.Rows[1].Freq = 100 * float64(total.AssignFreeCalls) / calls
			t.Rows[2].Freq = 100 * float64(total.FreeCalls) / calls
			// Scheduler statistics from the first (reference) run.
			sum := 0
			buckets := map[string]int{}
			for _, c := range checksPerDec {
				sum += c
				switch {
				case c <= 0:
					buckets["0"]++
				case c <= 4:
					buckets[fmt.Sprintf("%d", c)]++
				case c <= 20:
					buckets["5-20"]++
				default:
					buckets["21+"]++
				}
			}
			if len(checksPerDec) > 0 {
				t.ChecksPerDecision = float64(sum) / float64(len(checksPerDec))
				for k, v := range buckets {
					t.CheckDistribution[k] = 100 * float64(v) / float64(len(checksPerDec))
				}
			}
			if total.AssignFreeCalls > 0 {
				t.EvictingAFPct = 100 * float64(total.AssignFreeEvicting) / float64(total.AssignFreeCalls)
			}
			if reversed > 0 {
				t.ResourceReversePct = 100 * float64(resourceRev) / float64(reversed)
			}
		}
		t.Rows[0].PerCall = append(t.Rows[0].PerCall, perCall(checkWork, checkCalls))
		t.Rows[1].PerCall = append(t.Rows[1].PerCall, perCall(total.AssignFreeWork, total.AssignFreeCalls))
		t.Rows[2].PerCall = append(t.Rows[2].PerCall, perCall(total.FreeWork, total.FreeCalls))
		work := checkWork + total.AssignFreeWork + total.FreeWork
		calls := checkCalls + total.AssignFreeCalls + total.FreeCalls
		t.Weighted = append(t.Weighted, perCall(work, calls))
	}
	return t
}

func perCall(work, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(work) / float64(calls)
}

// Render lays Table 6 out in the paper's format.
func (t *Table6) Render() string {
	var b strings.Builder
	b.WriteString("Table 6: Performance of the basic functions (in work units per call)\n\n")
	width := 10
	for _, l := range t.Labels {
		if len(l)+2 > width {
			width = len(l) + 2
		}
	}
	fmt.Fprintf(&b, "%-14s", "")
	for _, l := range t.Labels {
		fmt.Fprintf(&b, "%*s", width, l)
	}
	fmt.Fprintf(&b, "%12s\n", "frequency")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Name)
		for _, v := range r.PerCall {
			fmt.Fprintf(&b, "%*.2f", width, v)
		}
		fmt.Fprintf(&b, "%11.1f%%\n", r.Freq)
	}
	fmt.Fprintf(&b, "%-14s", "weighted sum:")
	for _, v := range t.Weighted {
		fmt.Fprintf(&b, "%*.2f", width, v)
	}
	fmt.Fprintf(&b, "%12s\n", "100.0%")
	if len(t.Weighted) >= 2 {
		first, last := t.Weighted[0], t.Weighted[len(t.Weighted)-1]
		if last > 0 {
			fmt.Fprintf(&b, "\nquery-module speedup, original -> %s: %.1fx\n",
				t.Labels[len(t.Labels)-1], first/last)
		}
	}

	b.WriteString("\nScheduler statistics (Section 8):\n")
	fmt.Fprintf(&b, "  check queries per scheduling decision: %.2f\n", t.ChecksPerDecision)
	var keys []string
	for k := range t.CheckDistribution {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "    %s checks: %.1f%% of decisions\n", k, t.CheckDistribution[k])
	}
	fmt.Fprintf(&b, "  assign&free calls that unscheduled operations: %.1f%%\n", t.EvictingAFPct)
	fmt.Fprintf(&b, "  reversals due to resource contention: %.1f%% (rest: dependences)\n", t.ResourceReversePct)
	return b.String()
}
