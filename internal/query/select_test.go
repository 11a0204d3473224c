package query_test

// External-package tests for query.Select: the FSA backend lives in
// internal/automaton (which imports query), so any test that needs the
// "fsa" backend registered must sit outside package query to import it
// without a cycle.

import (
	"strings"
	"testing"

	_ "repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

func reducedFor(t *testing.T, name string) *resmodel.Expanded {
	t.Helper()
	m := machines.ByName(name)
	if m == nil {
		t.Fatalf("unknown machine %q", name)
	}
	red := core.CachedReduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	return red.Reduced
}

// TestSelectAutoWinnerIsCheapest pins the acceptance criterion: on
// every corpus machine the auto-picked backend's measured per-op cost
// is <= every feasible fixed backend's cost on the calibration trace.
func TestSelectAutoWinnerIsCheapest(t *testing.T) {
	for _, name := range []string{"example", "mips", "alpha", "cydra5", "parisc"} {
		e := reducedFor(t, name)
		sel, err := query.Select(e, query.Policy{Representation: "auto"})
		if err != nil {
			t.Fatalf("%s: Select(auto): %v", name, err)
		}
		if sel.Cal == nil {
			t.Fatalf("%s: auto selection returned no calibration", name)
		}
		win := sel.Cal.Cost(sel.Backend)
		if win == nil || !win.Feasible {
			t.Fatalf("%s: winner %q has no feasible calibration entry", name, sel.Backend)
		}
		for _, bc := range sel.Cal.Backends {
			if bc.Feasible && bc.CostPerOp < win.CostPerOp {
				t.Errorf("%s: winner %q cost %.3f > %q cost %.3f",
					name, sel.Backend, win.CostPerOp, bc.Backend, bc.CostPerOp)
			}
		}
		if sel.Module == nil {
			t.Fatalf("%s: nil module", name)
		}
	}
}

// TestSelectAutoPicksBitvectorOnReducedCydra5 pins the choice the
// streamed IMS path relies on: on the 64-cycle-word reduction of the
// Cydra 5, "auto" serves the bitvector at every modulo II from 1 to 40.
func TestSelectAutoPicksBitvectorOnReducedCydra5(t *testing.T) {
	e := reducedFor(t, "cydra5")
	for ii := 1; ii <= 40; ii++ {
		sel, err := query.Select(e, query.Policy{Representation: "auto", II: ii})
		if err != nil {
			t.Fatalf("II %d: Select(auto): %v", ii, err)
		}
		if sel.Backend != "bitvector" {
			t.Errorf("II %d: auto picked %q, want bitvector (calibration %+v)", ii, sel.Backend, sel.Cal.Backends)
		}
	}
}

// TestSelectDeterministic pins that calibration is pure: repeated
// selection over the same description yields the same winner and a
// cache hit (pointer-identical calibration).
func TestSelectDeterministic(t *testing.T) {
	e := reducedFor(t, "parisc")
	a, err := query.Select(e, query.Policy{Representation: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := query.Select(e, query.Policy{Representation: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != b.Backend {
		t.Fatalf("winner changed across runs: %q then %q", a.Backend, b.Backend)
	}
	if a.Cal != b.Cal {
		t.Fatalf("calibration was not cached (distinct pointers for identical key)")
	}
}

// TestSelectExcludesFSAForModulo: modulo scheduling deterministically
// rules the FSA out before any probing.
func TestSelectExcludesFSAForModulo(t *testing.T) {
	e := reducedFor(t, "example")
	sel, err := query.Select(e, query.Policy{Representation: "auto", II: 8})
	if err != nil {
		t.Fatal(err)
	}
	fsa := sel.Cal.Cost("fsa")
	if fsa == nil || fsa.Feasible {
		t.Fatalf("fsa should be infeasible for ii=8, got %+v", fsa)
	}
	if !strings.Contains(fsa.Reason, "linear") {
		t.Errorf("reason %q does not mention linear-only", fsa.Reason)
	}
	if sel.Backend == "fsa" {
		t.Fatal("fsa selected for a modulo schedule")
	}
}

// TestSelectExcludesFSAForDangling is the dangling.go regression test:
// the pair module cannot seed dangling windows, so a dangling policy
// must exclude it no matter how cheap its queries are.
func TestSelectExcludesFSAForDangling(t *testing.T) {
	e := reducedFor(t, "example")
	sel, err := query.Select(e, query.Policy{Representation: "auto", Dangling: true})
	if err != nil {
		t.Fatal(err)
	}
	fsa := sel.Cal.Cost("fsa")
	if fsa == nil || fsa.Feasible {
		t.Fatalf("fsa should be infeasible under a dangling policy, got %+v", fsa)
	}
	if !strings.Contains(fsa.Reason, "dangling") {
		t.Errorf("reason %q does not mention dangling", fsa.Reason)
	}
	if sel.Backend == "fsa" {
		t.Fatal("fsa selected under a dangling policy")
	}
	if _, ok := sel.Module.(query.DanglingSeeder); !ok {
		t.Fatalf("backend %q selected under a dangling policy does not implement DanglingSeeder", sel.Backend)
	}
}

// TestSelectExcludesFSATooLarge: the Cydra 5 automata exceed any sane
// state budget; selection must fall back to the reduced backends and
// record why.
func TestSelectExcludesFSATooLarge(t *testing.T) {
	e := reducedFor(t, "cydra5")
	sel, err := query.Select(e, query.Policy{Representation: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	fsa := sel.Cal.Cost("fsa")
	if fsa == nil || fsa.Feasible {
		t.Fatalf("fsa should exceed the state budget on cydra5, got %+v", fsa)
	}
	if sel.Backend == "fsa" {
		t.Fatal("fsa selected despite exceeding the state budget")
	}
}

// TestSelectPinned covers explicitly pinned representations, including
// the error path for a pinned-but-infeasible one.
func TestSelectPinned(t *testing.T) {
	e := reducedFor(t, "example")
	for _, rep := range []string{"discrete", "bitvector", "fsa"} {
		sel, err := query.Select(e, query.Policy{Representation: rep})
		if err != nil {
			t.Fatalf("Select(%s): %v", rep, err)
		}
		if sel.Backend != rep || sel.Module == nil {
			t.Fatalf("Select(%s) = backend %q, module %v", rep, sel.Backend, sel.Module)
		}
		if sel.Cal != nil {
			t.Errorf("pinned %s should not calibrate", rep)
		}
	}
	if _, err := query.Select(e, query.Policy{Representation: "fsa", II: 4}); err == nil {
		t.Fatal("pinned fsa with ii=4 should fail")
	}
	if _, err := query.Select(reducedFor(t, "cydra5"), query.Policy{Representation: "fsa"}); err == nil {
		t.Fatal("pinned fsa on cydra5 should exceed the state budget")
	}
	if _, err := query.Select(e, query.Policy{Representation: "nope"}); err == nil {
		t.Fatal("unknown backend should fail")
	}
}
