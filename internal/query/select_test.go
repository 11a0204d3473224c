package query_test

// External-package tests for query.Select: they reduce the built-in
// machines through internal/core, which imports query.

import (
	"fmt"
	"reflect"
	"testing"

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

// wideMachine builds a synthetic description with nRes resources: op i
// uses resource i at cycle 0 and the last resource at cycle 1, so every
// op pair conflicts one cycle apart.
func wideMachine(t *testing.T, nRes int) *resmodel.Expanded {
	t.Helper()
	m := &resmodel.Machine{Name: fmt.Sprintf("wide%d", nRes)}
	for r := 0; r < nRes; r++ {
		m.Resources = append(m.Resources, fmt.Sprintf("r%d", r))
	}
	for o := 0; o < 4; o++ {
		tab := resmodel.Table{Uses: []resmodel.Usage{{Resource: o, Cycle: 0}, {Resource: nRes - 1, Cycle: 1}}}
		m.Ops = append(m.Ops, resmodel.Operation{Name: fmt.Sprintf("op%d", o), Latency: 2, Alts: []resmodel.Table{tab}})
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m.Expand()
}

// answers drives m through a short check/assign/free sequence and
// records every answer, so two modules can be compared call for call.
func answers(m query.Module, nOps int) []bool {
	var out []bool
	id := 0
	for c := 0; c < 12; c++ {
		op := c % nOps
		ok := m.Check(op, c)
		out = append(out, ok)
		if ok {
			m.Assign(op, c, id)
			id++
		}
	}
	for c := 0; c < 12; c++ {
		out = append(out, m.Check((c+1)%nOps, c))
	}
	if id > 0 {
		m.Free(0, 0, 0)
		for c := 0; c < 4; c++ {
			out = append(out, m.Check(c%nOps, c))
		}
	}
	return out
}

// TestSelectAutoRule pins the fixed selection rule: "auto" serves the
// bitvector whenever the description packs into the word at the
// requested packing and the discrete table otherwise — on every
// built-in machine, the five-resource Figure 1 example at II 1-3
// included; both backends accept dangling seeding; "fsa" and unknown
// names are errors.
func TestSelectAutoRule(t *testing.T) {
	for _, name := range machines.Names() {
		orig := machines.ByName(name).Expand()
		for _, v := range []struct {
			use string
			e   *resmodel.Expanded
		}{{"original", orig}, {"reduced", reducedFor(t, name)}} {
			for ii := 0; ii <= 64; ii++ {
				sel, err := query.Select(v.e, query.Policy{Representation: "auto", II: ii})
				if err != nil {
					t.Fatalf("%s/%s ii=%d: Select(auto): %v", name, v.use, ii, err)
				}
				if sel.Backend != "bitvector" {
					t.Errorf("%s/%s ii=%d: auto picked %q, want bitvector", name, v.use, ii, sel.Backend)
				}
				if _, ok := sel.Module.(query.DanglingSeeder); !ok {
					t.Errorf("%s/%s ii=%d: auto module %T cannot seed dangling windows", name, v.use, ii, sel.Module)
				}
			}
		}
	}

	// Descriptions the word cannot hold fall back to discrete, and the
	// fallback answers exactly like a directly built discrete module.
	wide := wideMachine(t, 65)
	cydra := reducedFor(t, "cydra5") // 20 resources: k=4 needs 80 bits
	for _, c := range []struct {
		name string
		e    *resmodel.Expanded
		pol  query.Policy
	}{
		{"65 resources", wide, query.Policy{}},
		{"65 resources ii=5", wide, query.Policy{Representation: "auto", II: 5}},
		{"cydra5 k=4", cydra, query.Policy{Representation: "auto", K: 4}},
		{"cydra5 k=2 word=32 ii=7", cydra, query.Policy{Representation: "auto", K: 2, WordBits: 32, II: 7}},
	} {
		sel, err := query.Select(c.e, c.pol)
		if err != nil {
			t.Fatalf("%s: Select(auto): %v", c.name, err)
		}
		if sel.Backend != "discrete" {
			t.Errorf("%s: auto picked %q, want discrete", c.name, sel.Backend)
		}
		got := answers(sel.Module, len(c.e.Ops))
		want := answers(query.NewDiscrete(c.e, c.pol.II), len(c.e.Ops))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: auto answers %v, NewDiscrete answers %v", c.name, got, want)
		}
		if _, err := query.Select(c.e, query.Policy{Representation: "bitvector", II: c.pol.II, K: c.pol.K, WordBits: c.pol.WordBits}); err == nil {
			t.Errorf("%s: pinned bitvector built where auto fell back", c.name)
		}
	}

	for _, rep := range []string{"fsa", "nope"} {
		if _, err := query.Select(reducedFor(t, "example"), query.Policy{Representation: rep}); err == nil {
			t.Errorf("Select(%q) succeeded, want an error", rep)
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
			t.Errorf("II %d: auto picked %q, want bitvector", ii, sel.Backend)
		}
	}
}

// TestSelectDeterministic pins that selection is a pure function of
// the description and policy: repeated selection yields the same
// backend, and every call returns a fresh, independent module.
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
		t.Fatalf("backend changed across calls: %q then %q", a.Backend, b.Backend)
	}
	if a.Module == b.Module {
		t.Fatal("two selections share one module")
	}
	a.Module.Assign(0, 0, 1)
	if !b.Module.Check(0, 0) {
		t.Fatal("an assign on one selection's module is visible through the other")
	}
}

// TestSelectPinned covers explicitly pinned representations, including
// the error path for a bitvector packing that does not fit the word.
func TestSelectPinned(t *testing.T) {
	e := reducedFor(t, "example")
	for _, rep := range []string{"discrete", "bitvector"} {
		sel, err := query.Select(e, query.Policy{Representation: rep})
		if err != nil {
			t.Fatalf("Select(%s): %v", rep, err)
		}
		if sel.Backend != rep || sel.Module == nil {
			t.Fatalf("Select(%s) = backend %q, module %v", rep, sel.Backend, sel.Module)
		}
	}
	if _, err := query.Select(e, query.Policy{Representation: "bitvector", WordBits: 48}); err == nil {
		t.Fatal("pinned bitvector with a 48-bit word should fail")
	}
}
