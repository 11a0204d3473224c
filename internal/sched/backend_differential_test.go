package sched

import (
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// selectFactory returns a ModuleFactory over e: the automaton pair
// module for "fsa" (linear only), otherwise the backend the selection
// chokepoint serves for rep. Feasibility must be established by the
// caller before handing the factory to worker goroutines (a factory
// cannot report errors).
func selectFactory(e *resmodel.Expanded, rep string) ModuleFactory {
	return func(ii int) query.Module {
		m, err := buildModule(e, rep, ii)
		if err != nil {
			panic(err)
		}
		return m
	}
}

// buildModule builds one module of backend rep over e.
func buildModule(e *resmodel.Expanded, rep string, ii int) (query.Module, error) {
	if rep == "fsa" {
		return automaton.NewPairModule(e, automaton.DefaultLimit())
	}
	sel, err := query.Select(e, query.Policy{Representation: rep, II: ii})
	if err != nil {
		return nil, err
	}
	return sel.Module, nil
}

// TestAcyclicCorpusBackendsIdentical is the full-corpus differential
// suite for the query backends and the paper's §2 comparator:
// scheduling 200 basic blocks over the reduced PA-RISC description must
// produce byte-identical schedules on the automaton pair module and the
// discrete and bitvector backends, and the backends must agree on
// every query-count statistic (calls and naive-equivalent range probes;
// only the work per probe may differ).
func TestAcyclicCorpusBackendsIdentical(t *testing.T) {
	m := machines.ByName("parisc")
	red := core.Reduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	e := red.Reduced
	dcfg := loopgen.DefaultDAG(m)
	dcfg.Blocks = 200
	dags, err := loopgen.GenerateDAGs(m, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	backends := []string{"discrete", "bitvector", "fsa"}
	results := map[string][]ListResult{}
	totals := map[string]*query.Counters{}
	for _, rep := range backends {
		if _, err := buildModule(e, rep, 0); err != nil {
			t.Fatalf("%s infeasible on parisc/reduced: %v", rep, err)
		}
		rs := make([]ListResult, 0, len(dags))
		total := &query.Counters{}
		for _, g := range dags {
			mod, err := buildModule(e, rep, 0)
			if err != nil {
				t.Fatal(err)
			}
			r, err := OperationDriven(g, e, mod)
			if err != nil {
				t.Fatalf("%s/%s: %v", rep, g.Name, err)
			}
			rs = append(rs, r)
			total.AddFrom(mod.Counters())
		}
		results[rep] = rs
		totals[rep] = total
	}

	ref, refCtr := results["discrete"], totals["discrete"]
	for _, rep := range []string{"bitvector", "fsa"} {
		for i := range dags {
			if !reflect.DeepEqual(results[rep][i], ref[i]) {
				t.Fatalf("%s/%s: schedule differs from discrete\n%s: %+v\ndiscrete: %+v",
					rep, dags[i].Name, rep, results[rep][i], ref[i])
			}
		}
		c := totals[rep]
		if c.TotalCalls() != refCtr.TotalCalls() ||
			c.FirstFreeCalls != refCtr.FirstFreeCalls ||
			c.FirstFreeWithAltCalls != refCtr.FirstFreeWithAltCalls ||
			c.FirstFreeCycles != refCtr.FirstFreeCycles {
			t.Errorf("%s: query-count statistics differ from discrete\n%s: calls=%d ff=%d ffa=%d probes=%d\ndiscrete: calls=%d ff=%d ffa=%d probes=%d",
				rep, rep, c.TotalCalls(), c.FirstFreeCalls, c.FirstFreeWithAltCalls, c.FirstFreeCycles,
				refCtr.TotalCalls(), refCtr.FirstFreeCalls, refCtr.FirstFreeWithAltCalls, refCtr.FirstFreeCycles)
		}
	}
}

// TestAutoBackendCorpusDeterministic pins "auto" end to end at the
// scheduler layer: modulo-scheduling a 200-loop Cydra 5 corpus through
// arenas whose factory auto-selects per II yields exactly the pinned
// discrete backend's schedules (backend equivalence), identically at 1
// and 8 workers and across repeated runs (the selection rule is a pure
// function of the description and II).
func TestAutoBackendCorpusDeterministic(t *testing.T) {
	m := machines.Cydra5()
	red := core.Reduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	e := red.Reduced
	loops, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ref := ScheduleBatch(loops, m, selectFactory(e, "discrete"), cfg, 1)
	for _, workers := range []int{1, 8} {
		for run := 0; run < 2; run++ {
			got := ScheduleBatch(loops, m, selectFactory(e, "auto"), cfg, workers)
			for i := range loops {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("workers=%d run=%d loop %d (%s): auto schedule differs from discrete\nauto:     %+v\ndiscrete: %+v",
						workers, run, i, loops[i].Name, got[i], ref[i])
				}
			}
		}
	}
}
