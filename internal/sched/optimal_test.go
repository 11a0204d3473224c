package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

func TestOptimalDotProduct(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	g := dotProduct(t, m)
	r := Optimal(g, m, discreteFactory(e), DefaultOptimalConfig())
	if !r.OK || !r.Proven || r.Fallback {
		t.Fatalf("optimal run not proven: %+v", r)
	}
	if r.II < r.MII {
		t.Fatalf("II %d < MII %d", r.II, r.MII)
	}
	if err := VerifySchedule(g, e, r.Result); err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	ims := Schedule(g, m, discreteFactory(e), DefaultConfig())
	if ims.OK && r.II > ims.II {
		t.Errorf("optimal II %d worse than IMS II %d", r.II, ims.II)
	}
}

// TestOptimalPropertyCorpus is the satellite property test over the
// 200-loop stratified corpus: wherever the exact search completes
// within budget, MII <= II_opt <= II_ims, and every schedule — produced
// here over the reduced bitvector representation — revalidates on the
// naive (non-range, per-cycle Check) query path over the ORIGINAL
// machine description, the independent oracle VerifySchedule drives.
// It also pins the acceptance bar: at the default budget, at least 90%
// of the corpus is solved to proven optimality.
func TestOptimalPropertyCorpus(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(200)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	factory := reducedBitvecFactory(t, e)
	cfg := DefaultOptimalConfig()
	opt := OptimalBatch(loops, m, factory, cfg, 4)
	ims := ScheduleBatch(loops, m, factory, cfg.IMS, 4)

	proven := 0
	for i, g := range loops {
		r := opt[i]
		if r.Proven {
			proven++
			if !r.OK {
				t.Fatalf("%s: proven but not OK: %+v", g.Name, r)
			}
			if r.II < r.MII {
				t.Errorf("%s: proven II %d < MII %d", g.Name, r.II, r.MII)
			}
			if ims[i].OK && r.II > ims[i].II {
				t.Errorf("%s: proven II %d > IMS II %d", g.Name, r.II, ims[i].II)
			}
		}
		if r.Fallback {
			// The fallback contract: Result is exactly the IMS run.
			if !reflect.DeepEqual(r.Result, ims[i]) {
				t.Errorf("%s: fallback Result differs from IMS\nopt: %+v\nims: %+v", g.Name, r.Result, ims[i])
			}
		}
		if r.OK {
			if err := VerifySchedule(g, e, r.Result); err != nil {
				t.Errorf("%s: schedule fails the naive oracle: %v", g.Name, err)
			}
		}
	}
	if min := (len(loops) * 9) / 10; proven < min {
		t.Errorf("proven optimal on %d/%d loops, want >= %d", proven, len(loops), min)
	}
}

// TestOptimalDeterministicAcrossWorkers is the satellite differential
// test: the per-loop OptimalResults and the sched/query obs counter
// totals are byte-identical at batch workers 1 and 8, under the range
// scan and under the naive per-cycle oracle (naiveModule), at two
// budgets that force different proven/fallback mixtures. Additionally
// the results themselves (schedules, node counts, outcomes) are
// identical across the two scan modes — only query-module counters may
// differ, and those live outside OptimalResult.
func TestOptimalDeterministicAcrossWorkers(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(120)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	factory := reducedBitvecFactory(t, e)
	for _, bc := range []struct {
		name   string
		budget int64
	}{
		{"mid-budget", 24576},
		{"tiny-budget", 2048},
	} {
		t.Run(bc.name, func(t *testing.T) {
			var byMode [2][]OptimalResult
			for mi, naive := range []bool{false, true} {
				cfg := DefaultOptimalConfig()
				cfg.MaxNodes = bc.budget
				factory := factory
				if naive {
					factory = naiveFactory(factory)
				}
				var ref []OptimalResult
				refSnap := obsRun(t, func() {
					ref = OptimalBatch(loops, m, factory, cfg, 1)
				})
				gotSnap := obsRun(t, func() {
					got := OptimalBatch(loops, m, factory, cfg, 8)
					for i := range loops {
						if !reflect.DeepEqual(got[i], ref[i]) {
							t.Fatalf("naive=%v workers=8 loop %d (%s): result differs\ngot: %+v\nref: %+v",
								naive, i, loops[i].Name, got[i], ref[i])
						}
					}
				})
				if !reflect.DeepEqual(gotSnap, refSnap) {
					t.Errorf("naive=%v: metric totals differ between workers 1 and 8", naive)
				}
				byMode[mi] = ref
			}
			for i := range loops {
				if !reflect.DeepEqual(byMode[0][i], byMode[1][i]) {
					t.Fatalf("loop %d (%s): range-scan result differs from naive-scan\nrange: %+v\nnaive: %+v",
						i, loops[i].Name, byMode[0][i], byMode[1][i])
				}
			}
		})
	}
}

// TestOptimalFallbackMatchesIMS drives the budget to its floor: with
// one node the exact search can decide nothing, so every loop returns
// the IMS seed byte-identically — proven when the seed achieves MII,
// fallback otherwise — and exactly one of Proven/Fallback is set.
func TestOptimalFallbackMatchesIMS(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(40)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	factory := discreteFactory(e)
	cfg := DefaultOptimalConfig()
	cfg.MaxNodes = 1
	fallbacks := 0
	for _, g := range loops {
		r := Optimal(g, m, factory, cfg)
		if r.Proven == r.Fallback {
			t.Fatalf("%s: want exactly one of Proven/Fallback: %+v", g.Name, r)
		}
		ims := Schedule(g, m, factory, cfg.IMS)
		if !reflect.DeepEqual(r.Result, ims) {
			t.Fatalf("%s: Result differs from IMS seed\nopt: %+v\nims: %+v", g.Name, r.Result, ims)
		}
		if r.Proven && !(r.II == r.MII || r.InfeasibleIIs == ims.II-r.MII) {
			t.Fatalf("%s: proven at budget 1 without a proof: %+v", g.Name, r)
		}
		if r.Fallback {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("corpus has no open-gap loop; the fallback path went unexercised")
	}
}

// oracleMinII exhaustively searches for the smallest feasible II in
// [lo, hi] by enumerating every (time, alternative) assignment over a
// bounded horizon. The horizon (n-1)*(II+maxDelay)+1 is complete: any
// feasible schedule normalizes into it by sliding every node above a
// larger gap down one II (residues — hence the MRT — are untouched, and
// cross-gap dependence slack only grows). Returns -1 when no II in
// range is feasible.
func oracleMinII(g *ddg.Graph, e *resmodel.Expanded, lo, hi int) int {
	n := len(g.Nodes)
	maxW := 0
	for _, ed := range g.Edges {
		if ed.Delay > maxW {
			maxW = ed.Delay
		}
	}
	times := make([]int, n)
	alts := make([]int, n)
	for ii := lo; ii <= hi; ii++ {
		mod := query.NewDiscrete(e, ii)
		horizon := (n-1)*(ii+maxW) + 1
		var rec func(v int) bool
		rec = func(v int) bool {
			if v == n {
				for _, ed := range g.Edges {
					if times[ed.To]-times[ed.From] < ed.Delay-ii*ed.Dist {
						return false
					}
				}
				return true
			}
			for tm := 0; tm < horizon; tm++ {
				for _, a := range e.AltGroup[g.Nodes[v].Op] {
					if !mod.Schedulable(a) || !mod.Check(a, tm) {
						continue
					}
					mod.Assign(a, tm, v)
					times[v] = tm
					alts[v] = a
					if rec(v + 1) {
						mod.Free(a, tm, v)
						return true
					}
					mod.Free(a, tm, v)
				}
			}
			return false
		}
		if n == 0 || rec(0) {
			return ii
		}
	}
	return -1
}

// TestOptimalMatchesBruteForce cross-checks the branch-and-bound —
// including its infeasibility proofs — against time-enumeration over
// random tiny loops on two machines with alternatives. Wherever the
// oracle finds a minimum feasible II within its window, the exact
// search must report exactly that II; where the oracle proves the
// window infeasible, the search must not claim an II inside it.
func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []*resmodel.Machine{machines.Cydra5Subset(), machines.MIPS()} {
		e := m.Expand()
		factory := discreteFactory(e)
		cases := 0
		for cases < 25 {
			n := 1 + rng.Intn(3)
			g := &ddg.Graph{Name: "tiny", Nodes: make([]ddg.Node, n)}
			for v := range g.Nodes {
				g.Nodes[v].Op = rng.Intn(len(m.Ops))
			}
			for k := rng.Intn(5); k > 0; k-- {
				g.Edges = append(g.Edges, ddg.Edge{
					From:  rng.Intn(n),
					To:    rng.Intn(n),
					Delay: rng.Intn(5),
					Dist:  rng.Intn(3),
				})
			}
			if g.Validate() != nil {
				continue
			}
			cfg := DefaultOptimalConfig()
			cfg.MaxNodes = 1 << 22
			r := Optimal(g, m, factory, cfg)
			if r.MII > 12 {
				continue // keep the oracle's horizon cheap
			}
			cases++
			if !r.Proven {
				t.Fatalf("case %d: tiny loop not proven within budget: %+v", cases, r)
			}
			hi := r.MII + 8
			want := oracleMinII(g, e, r.MII, hi)
			if want >= 0 {
				if !r.OK || r.II != want {
					t.Errorf("case %d: optimal II = %d (ok=%v), oracle says %d\nnodes=%+v edges=%+v",
						cases, r.II, r.OK, want, g.Nodes, g.Edges)
				}
			} else if r.OK && r.II <= hi {
				t.Errorf("case %d: optimal claims II %d but oracle proves [%d,%d] infeasible\nnodes=%+v edges=%+v",
					cases, r.II, r.MII, hi, g.Nodes, g.Edges)
			}
			if r.OK {
				if err := VerifySchedule(g, e, r.Result); err != nil {
					t.Errorf("case %d: VerifySchedule: %v", cases, err)
				}
			}
		}
	}
}

// TestOptimalArenaSteadyAllocs pins the arena bargain for the exact
// scheduler: once warmed up on a loop shape, re-searching allocates a
// small constant per loop (witness install and result bookkeeping) —
// nothing proportional to the thousands of nodes expanded. The loop is
// the corpus's first with an IMS-over-MII gap, so the budgeted search
// actually runs (a seed-proven loop would expand zero nodes).
func TestOptimalArenaSteadyAllocs(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(200)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	var g *ddg.Graph
	for _, cand := range loops {
		r := Schedule(cand, m, discreteFactory(e), DefaultConfig())
		if r.OK && r.II > r.MII {
			g = cand
			break
		}
	}
	if g == nil {
		t.Fatal("corpus has no IMS-over-MII loop to search")
	}
	a := NewArena(discreteFactory(e))
	cfg := DefaultOptimalConfig()
	cfg.MaxNodes = 4096
	var res OptimalResult
	a.OptimalInto(&res, g, m, cfg)
	allocs := testing.AllocsPerRun(20, func() {
		a.OptimalInto(&res, g, m, cfg)
	})
	if res.Nodes < 1 {
		t.Fatalf("no nodes expanded: %+v", res)
	}
	if allocs > 16 {
		t.Errorf("steady-state Optimal allocates %.1f allocs/loop over %d nodes, want <= 16", allocs, res.Nodes)
	}
}
