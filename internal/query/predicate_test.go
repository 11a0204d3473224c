package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

func TestPredSetBasics(t *testing.T) {
	ps := NewPredSet(4)
	ps.MarkDisjoint(1, 2)
	if !ps.Disjoint(1, 2) || !ps.Disjoint(2, 1) {
		t.Error("disjointness not symmetric")
	}
	if ps.Disjoint(1, 3) || ps.Disjoint(0, 1) {
		t.Error("unrelated predicates reported disjoint")
	}
	for _, f := range []func(){
		func() { ps.MarkDisjoint(0, 1) },
		func() { ps.MarkDisjoint(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid MarkDisjoint did not panic")
				}
			}()
			f()
		}()
	}
}

// TestPredicatedSharing: the EMS effect — two operations from disjoint
// IF-converted paths share a resource in the same MRT cell, which the
// unpredicated table forbids.
func TestPredicatedSharing(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	st0 := e.OpIndex("st.w.0") // port-0 store alternative
	if st0 < 0 {
		t.Fatal("st.w.0 missing")
	}
	ps := NewPredSet(3)
	ps.MarkDisjoint(1, 2) // then-path and else-path predicates

	ii := 4
	pm := NewPredicated(e, ps, ii)
	pm.Assign(st0, 0, 1, 10) // store under the then-predicate
	// Same cell under the disjoint else-predicate: allowed.
	if !pm.Check(st0, 0, 2) {
		t.Error("disjoint-predicate store rejected")
	}
	// Same cell under the always-true predicate: contention.
	if pm.Check(st0, 0, 0) {
		t.Error("always-true store accepted on an occupied cell")
	}
	// Same cell under the SAME predicate: contention.
	if pm.Check(st0, 0, 1) {
		t.Error("same-predicate store accepted on an occupied cell")
	}
	pm.Assign(st0, 0, 2, 11)
	if pm.Scheduled() != 2 {
		t.Errorf("Scheduled = %d, want 2", pm.Scheduled())
	}
	// The unpredicated table cannot fold these two stores into II=4...
	d := NewDiscrete(e, ii)
	d.Assign(st0, 0, 10)
	if d.Check(st0, 0) {
		t.Error("unpredicated table allowed the overlap")
	}
	// ...so EMS halves the store port pressure for diamond code.
	pm.Free(st0, 0, 10)
	// The pred-2 reservation remains: pred 1 (disjoint) fits, pred 0 does not.
	if !pm.Check(st0, 0, 1) {
		t.Error("freed predicate slot not reusable by a disjoint predicate")
	}
	if pm.Check(st0, 0, 0) {
		t.Error("always-true op accepted against the remaining pred-2 reservation")
	}
}

// TestPredicatedModulo: predicate sharing respects MRT wraparound and
// negative cycles.
func TestPredicatedModulo(t *testing.T) {
	e := machines.Example().Expand()
	bop := e.OpIndex("B")
	ps := NewPredSet(3)
	ps.MarkDisjoint(1, 2)
	pm := NewPredicated(e, ps, 5)
	pm.Assign(bop, -5, 1, 1) // column 0
	if pm.Check(bop, 0, 1) {
		t.Error("same predicate across wrap accepted")
	}
	if !pm.Check(bop, 0, 2) {
		t.Error("disjoint predicate across wrap rejected")
	}
}

// Property: with every predicate pairwise non-disjoint (only predicate 0
// used), the predicated module answers exactly like the discrete module —
// EMS degenerates to the paper's base representation.
func TestQuickPredicatedDegeneratesToDiscrete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		ii := rng.Intn(8)
		ps := NewPredSet(1)
		pm := NewPredicated(e, ps, ii)
		d := NewDiscrete(e, ii)
		id := 1
		for step := 0; step < 80; step++ {
			op := rng.Intn(len(e.Ops))
			cyc := rng.Intn(15)
			if pm.Check(op, cyc, 0) != d.Check(op, cyc) {
				return false
			}
			if d.Schedulable(op) && d.Check(op, cyc) && rng.Intn(2) == 0 {
				pm.Assign(op, cyc, 0, id)
				d.Assign(op, cyc, id)
				id++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: reductions preserve predicated scheduling constraints too —
// contention stays pairwise, so the reduced description's predicated
// module answers every query identically.
func TestQuickPredicatedReducedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		red := core.Reduce(e, core.Objective{Kind: core.ResUses})
		if red.Verify() != nil {
			return false
		}
		ps := NewPredSet(4)
		ps.MarkDisjoint(1, 2)
		ps.MarkDisjoint(2, 3)
		ii := 1 + rng.Intn(8)
		po := NewPredicated(e, ps, ii)
		pr := NewPredicated(red.Reduced, ps, ii)
		id := 1
		for step := 0; step < 80; step++ {
			op := rng.Intn(len(e.Ops))
			cyc := rng.Intn(12)
			pred := rng.Intn(4)
			want := po.Check(op, cyc, pred)
			if pr.Check(op, cyc, pred) != want {
				return false
			}
			if want && rng.Intn(2) == 0 {
				po.Assign(op, cyc, pred, id)
				pr.Assign(op, cyc, pred, id)
				id++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
