package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// reducedBitvecFactory reduces e under the k-cycle-word objective and
// returns a packed-bitvector factory over the reduction — the
// representation the throughput benchmark ships.
func reducedBitvecFactory(t *testing.T, e *resmodel.Expanded) ModuleFactory {
	t.Helper()
	red := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	k := query.MaxCyclesPerWord(len(red.Reduced.Resources), 64)
	return bitvecFactory(red.Reduced, k)
}

// obsRun executes fn with metrics freshly enabled and returns the
// query/sched snapshot. sched.arena is excluded: module build/reuse
// counts legitimately depend on the worker count and on whether an
// arena was used at all.
func obsRun(t *testing.T, fn func()) obs.Snapshot {
	t.Helper()
	r := obs.Default()
	r.SetEnabled(true)
	r.Reset()
	defer func() {
		r.SetEnabled(false)
		r.Reset()
	}()
	fn()
	return r.Snapshot().Filter("query", "sched").Exclude("sched.arena")
}

// TestArenaMatchesFreshCorpus pins the arena equivalence: ScheduleBatch,
// which schedules a corpus through per-worker arenas, produces at one
// worker and at eight byte-identical Results and identical query/sched
// metric totals to fresh per-loop Schedule calls, for both
// representations.
func TestArenaMatchesFreshCorpus(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(200)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name    string
		factory ModuleFactory
	}{
		{"discrete", discreteFactory(e)},
		{"bitvec-k64", reducedBitvecFactory(t, e)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fresh []Result
			freshSnap := obsRun(t, func() {
				fresh = make([]Result, len(loops))
				for i, g := range loops {
					fresh[i] = Schedule(g, m, tc.factory, cfg)
				}
			})
			for _, workers := range []int{1, 8} {
				var got []Result
				gotSnap := obsRun(t, func() {
					got = ScheduleBatch(loops, m, tc.factory, cfg, workers)
				})
				for i := range loops {
					if !reflect.DeepEqual(got[i], fresh[i]) {
						t.Fatalf("workers=%d loop %d (%s): arena result differs from fresh\narena: %+v\nfresh: %+v",
							workers, i, loops[i].Name, got[i], fresh[i])
					}
				}
				if !reflect.DeepEqual(gotSnap, freshSnap) {
					t.Errorf("workers=%d: arena metric totals differ from fresh run", workers)
				}
			}
		})
	}
}

// TestScheduleStreamMatchesFresh pins the streamed driver against the
// fresh path: ScheduleStream over the strata stream reports, at one and
// at eight workers, exactly the aggregate statistics and query counters
// a fresh per-loop run accumulates.
func TestScheduleStreamMatchesFresh(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st := loopgen.DefaultStrata(300)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	factory := reducedBitvecFactory(t, e)

	var want StreamStats
	for _, g := range loops {
		var ctrs []*query.Counters
		wrapped := func(ii int) query.Module {
			mod := factory(ii)
			ctrs = append(ctrs, mod.Counters())
			return mod
		}
		r := Schedule(g, m, wrapped, cfg)
		want.Loops++
		if r.OK {
			want.SumII += int64(r.II)
		} else {
			want.Failed++
		}
		want.SumMII += int64(r.MII)
		want.Decisions += int64(r.Decisions)
		for _, c := range ctrs {
			want.Counters.AddFrom(c)
		}
	}

	for _, workers := range []int{1, 8} {
		s, err := loopgen.NewStream(m, st)
		if err != nil {
			t.Fatal(err)
		}
		got := ScheduleStream(s.Next, m, factory, cfg, workers, 64)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: stream stats differ from fresh run\ngot:  %+v\nwant: %+v", workers, got, want)
		}
	}
}

// acyclicCopy strips the loop-carried edges, leaving the single-
// iteration dependence graph the acyclic schedulers accept.
func acyclicCopy(g *ddg.Graph) *ddg.Graph {
	a := &ddg.Graph{Name: g.Name, Nodes: g.Nodes}
	for _, e := range g.Edges {
		if e.Dist == 0 {
			a.Edges = append(a.Edges, e)
		}
	}
	return a
}

// TestArenaAcyclicMatchesFresh pins the arena variants of the acyclic
// schedulers against their fresh counterparts over a corpus, exercising
// module reuse across consecutive graphs.
func TestArenaAcyclicMatchesFresh(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	loops, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(120))
	if err != nil {
		t.Fatal(err)
	}
	la := NewArena(discreteFactory(e))
	oa := NewArena(discreteFactory(e))
	for _, g := range loops {
		ag := acyclicCopy(g)

		wantL, errL := ListSchedule(ag, e, &ModuleIssuer{M: query.NewDiscrete(e, 0)})
		gotL, gerrL := la.ListSchedule(ag, e)
		if (errL == nil) != (gerrL == nil) {
			t.Fatalf("%s: list error mismatch: fresh %v, arena %v", g.Name, errL, gerrL)
		}
		if errL == nil && !reflect.DeepEqual(gotL, wantL) {
			t.Fatalf("%s: arena list schedule differs\narena: %+v\nfresh: %+v", g.Name, gotL, wantL)
		}

		wantO, errO := OperationDriven(ag, e, query.NewDiscrete(e, 0))
		gotO, gerrO := oa.OperationDriven(ag, e)
		if (errO == nil) != (gerrO == nil) {
			t.Fatalf("%s: opdriven error mismatch: fresh %v, arena %v", g.Name, errO, gerrO)
		}
		if errO == nil && !reflect.DeepEqual(gotO, wantO) {
			t.Fatalf("%s: arena opdriven schedule differs\narena: %+v\nfresh: %+v", g.Name, gotO, wantO)
		}
	}
}

// TestArenaSteadyStateZeroAlloc pins the headline allocation property:
// after one warmup pass over the corpus, scheduling through an arena
// allocates nothing per loop — modules are reset not rebuilt, scratch
// vectors and the Result's slices retain their grown capacity.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	loops, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name    string
		factory ModuleFactory
	}{
		{"discrete", discreteFactory(e)},
		{"bitvec-k64", reducedBitvecFactory(t, e)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(tc.factory)
			var res Result
			for _, g := range loops {
				a.ScheduleInto(&res, g, m, cfg) // warmup: grow buffers, build modules
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, g := range loops {
					a.ScheduleInto(&res, g, m, cfg)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state ScheduleInto allocates %.1f times per corpus pass, want 0", allocs)
			}
		})
	}
}
