package query

import (
	"math"
	"slices"
	"testing"

	"repro/internal/machines"
)

// maxID is the largest instance id a module accepts (see Module).
const maxID = math.MaxInt32

// moduleKeepsMaxID checks that an instance with the largest legal id is
// seen by Check, evicted by a conflicting AssignFree under its own id,
// and leaves the module's owner fields consistent for a later eviction.
func moduleKeepsMaxID(t *testing.T, name string, m Module, op int) {
	t.Helper()
	m.Assign(op, 0, maxID)
	if m.Check(op, 0) {
		t.Fatalf("%s: Check missed the contention with instance %d", name, maxID)
	}
	if ev := m.AssignFree(op, 0, 5); !slices.Equal(ev, []int{maxID}) {
		t.Fatalf("%s: AssignFree evicted %v, want [%d]", name, ev, maxID)
	}
	if ev := m.AssignFree(op, 0, maxID); !slices.Equal(ev, []int{5}) {
		t.Fatalf("%s: AssignFree evicted %v, want [5]", name, ev)
	}
	m.Free(op, 0, maxID)
	if !m.Check(op, 0) {
		t.Fatalf("%s: Free of instance %d left its reservation behind", name, maxID)
	}
}

// TestDiscreteInstanceIDRange pins the upper end of the documented id
// range on the discrete module, linear and modulo.
func TestDiscreteInstanceIDRange(t *testing.T) {
	e := machines.Example().Expand()
	for _, ii := range []int{0, 7} {
		moduleKeepsMaxID(t, "discrete", NewDiscrete(e, ii), e.OpIndex("B"))
	}
}

// TestBitvectorInstanceIDRange pins it on the bitvector module, linear
// and modulo; the conflicting AssignFree also drives the optimistic to
// update mode transition, which rebuilds the owner fields from the ids.
func TestBitvectorInstanceIDRange(t *testing.T) {
	e := machines.Example().Expand()
	for _, ii := range []int{0, 20} {
		b, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, ii)
		if err != nil {
			t.Fatal(err)
		}
		op := e.OpIndex("B")
		b.AssignFree(op, 10, 6) // disjoint from cycle 0; optimistic, no owner fields yet
		moduleKeepsMaxID(t, "bitvector", b, op)
		if !b.updateMode {
			t.Fatalf("bitvector ii=%d: conflicting AssignFree did not enter update mode", ii)
		}
	}
}

// TestPredicatedInstanceIDRange pins it on the predicated module: freeing
// the largest id releases its reservations and no other instance's.
func TestPredicatedInstanceIDRange(t *testing.T) {
	e := machines.Example().Expand()
	op := e.OpIndex("B")
	ps := NewPredSet(3)
	ps.MarkDisjoint(1, 2)
	for _, ii := range []int{0, 7} {
		pm := NewPredicated(e, ps, ii)
		pm.Assign(op, 0, 1, maxID)
		pm.Assign(op, 0, 2, 5)
		pm.Free(op, 0, maxID)
		if !pm.Check(op, 0, 1) {
			t.Fatalf("predicated ii=%d: Free of instance %d left its reservation behind", ii, maxID)
		}
		if pm.Check(op, 0, 2) {
			t.Fatalf("predicated ii=%d: Free of instance %d released instance 5", ii, maxID)
		}
	}
}
