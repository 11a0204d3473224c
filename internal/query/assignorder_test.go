package query

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// TestBitvectorOverlappingAssignsEvictLast pins the update-mode owner
// rebuild after overlapping unchecked Assigns: the last Assign owns the
// cells, so the conflicting AssignFree evicts it — the answer Discrete's
// overwriting Assign gives — on every run, not whichever instance the
// rebuild happened to visit last.
func TestBitvectorOverlappingAssignsEvictLast(t *testing.T) {
	m := machines.Cydra5()
	red := core.CachedReduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	e := red.Reduced
	const ii = 7
	op := -1
	for o := range e.Ops {
		if len(e.Ops[o].Table.Uses) > 0 && !compileFor(e, ii).selfConf[o] {
			op = o
			break
		}
	}
	if op < 0 {
		t.Fatal("no schedulable op with a non-empty table")
	}
	for run := 0; run < 200; run++ {
		for _, mod := range []Module{NewDiscrete(e, ii), mustBitvector(t, e, ii)} {
			for id := 1; id <= 8; id++ {
				mod.Assign(op, 0, id)
			}
			if ev := mod.AssignFree(op, 0, 100); !slices.Equal(ev, []int{8}) {
				t.Fatalf("run %d %T: AssignFree evicted %v, want [8]", run, mod, ev)
			}
		}
	}
}

func mustBitvector(t *testing.T, e *resmodel.Expanded, ii int) *Bitvector {
	t.Helper()
	b, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, ii)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// discreteOwnsAll reports whether every cell of id's placement (op at
// cycle) is still owned by id in d: no later unchecked Assign or union
// seeding overwrote any of them. Cells before a linear table's entry
// are skipped.
func discreteOwnsAll(d *Discrete, op, cycle, id int) bool {
	base := d.tab.fold(cycle)
	for _, u := range d.c.uses[op] {
		if c := d.tab.at(base, u.Cycle); c >= 0 && int(d.tab.get(u.Resource, c)) != id {
			return false
		}
	}
	return true
}

// TestBitvectorMatchesDiscreteWithUncheckedAssigns is the differential
// behind the owner rebuild: random machines and the reduced Cydra 5,
// linear and modulo tables, random sequences of unchecked (possibly
// overlapping) Assigns, AssignFrees, Checks and Frees. Bitvector and
// Discrete must give the same Check verdicts, the same eviction lists
// in the same order and the same scheduled instances at every step.
// In update mode any live instance may be freed: both modules release
// only the cells it owns. In optimistic mode the Bitvector has no live
// owner fields and Free clears every flag of its op, while Discrete
// keeps a newer owner's cells, so there frees are limited to instances
// still owning all their cells.
func TestBitvectorMatchesDiscreteWithUncheckedAssigns(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	machinesUnderTest := []*resmodel.Expanded{
		core.CachedReduce(machines.Cydra5().Expand(), core.Objective{Kind: core.KCycleWord, K: 64}).Reduced,
	}
	for len(machinesUnderTest) < 25 {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		if MaxCyclesPerWord(len(e.Resources), 64) >= 1 {
			machinesUnderTest = append(machinesUnderTest, e)
		}
	}
	for mi, e := range machinesUnderTest {
		for _, ii := range []int{0, 1 + rng.Intn(9)} {
			for trial := 0; trial < 8; trial++ {
				name := fmt.Sprintf("machine %d ii %d trial %d", mi, ii, trial)
				diffUncheckedSequence(t, name, rng, e, ii)
			}
		}
	}
}

func diffUncheckedSequence(t *testing.T, name string, rng *rand.Rand, e *resmodel.Expanded, ii int) {
	t.Helper()
	d := NewDiscrete(e, ii)
	b := mustBitvector(t, e, ii)
	span := 24
	if ii > 0 {
		span = 3 * ii
	}
	type placed struct{ op, cycle int }
	live := map[int]placed{}
	nextID := 0
	for step := 0; step < 120; step++ {
		op := rng.Intn(len(e.Ops))
		cycle := rng.Intn(span)
		if !d.Schedulable(op) {
			continue
		}
		switch r := rng.Intn(10); {
		case r < 3: // unchecked Assign, possibly overlapping
			d.Assign(op, cycle, nextID)
			b.Assign(op, cycle, nextID)
			live[nextID] = placed{op, cycle}
			nextID++
		case r < 6:
			dev := slices.Clone(d.AssignFree(op, cycle, nextID))
			bev := b.AssignFree(op, cycle, nextID)
			if !slices.Equal(dev, bev) {
				t.Fatalf("%s step %d: AssignFree(%d,%d) evicted %v on discrete, %v on bitvector",
					name, step, op, cycle, dev, bev)
			}
			for _, id := range dev {
				delete(live, id)
			}
			live[nextID] = placed{op, cycle}
			nextID++
		case r < 8:
			if dc, bc := d.Check(op, cycle), b.Check(op, cycle); dc != bc {
				t.Fatalf("%s step %d: Check(%d,%d) = %v on discrete, %v on bitvector", name, step, op, cycle, dc, bc)
			}
		default:
			var ids []int
			for id := range live {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			p := live[id]
			if !b.updateMode && !discreteOwnsAll(d, p.op, p.cycle, id) {
				continue
			}
			d.Free(p.op, p.cycle, id)
			b.Free(p.op, p.cycle, id)
			delete(live, id)
		}
		if di, bi := d.Instances(), b.Instances(); !maps.Equal(di, bi) {
			t.Fatalf("%s step %d: scheduled instances differ\ndiscrete:  %v\nbitvector: %v", name, step, di, bi)
		}
	}
}
