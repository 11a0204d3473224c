package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/resmodel"
)

// TestBitvectorOwnerGridGrowth: update-mode assign&free at a far cycle
// grows the lazily materialized owner grid of a linear table.
func TestBitvectorOwnerGridGrowth(t *testing.T) {
	e := figure1()
	a := e.OpIndex("A")
	bv, err := NewBitvector(e, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	bv.AssignFree(a, 0, 1)
	// Force the mode transition with a conflicting assign&free.
	bop := e.OpIndex("B")
	bv.AssignFree(bop, 1, 2)
	if !bv.updateMode {
		t.Fatal("no mode transition")
	}
	// Far beyond the current owner grid: must grow, not panic.
	ev := bv.AssignFree(a, 5000, 3)
	if len(ev) != 0 {
		t.Fatalf("unexpected evictions: %v", ev)
	}
	if bv.Check(a, 5000) {
		t.Fatal("cell not reserved after far assign&free")
	}
	// Evicting the far instance through a conflict works too.
	ev = bv.AssignFree(bop, 5001, 4)
	if len(ev) != 1 || ev[0] != 3 {
		t.Fatalf("evicted %v, want [3]", ev)
	}
}

// TestBitvector32BitWords: the 32-bit word configuration behaves like the
// 64-bit one on the example machine.
func TestBitvector32BitWords(t *testing.T) {
	e := figure1()
	k := MaxCyclesPerWord(len(e.Resources), 32) // 6 cycles of 5 bits
	if k != 6 {
		t.Fatalf("k = %d, want 6", k)
	}
	bv, err := NewBitvector(e, k, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDiscrete(e, 0)
	for cyc := 0; cyc < 30; cyc++ {
		op := cyc % len(e.Ops)
		if bv.Check(op, cyc) != d.Check(op, cyc) {
			t.Fatalf("32-bit bitvector diverges at cycle %d", cyc)
		}
		if d.Check(op, cyc) {
			bv.Assign(op, cyc, cyc)
			d.Assign(op, cyc, cyc)
		}
	}
}

// TestDiscreteLinearGrowth: the linear reserved table grows transparently.
func TestDiscreteLinearGrowth(t *testing.T) {
	e := figure1()
	d := NewDiscrete(e, 0)
	bop := e.OpIndex("B")
	d.Assign(bop, 10_000, 1)
	if d.Check(bop, 10_001) {
		t.Fatal("overlapping B accepted after growth")
	}
	d.Free(bop, 10_000, 1)
	if !d.Check(bop, 10_001) {
		t.Fatal("cells not freed after growth")
	}
}

// TestSelfEvictionSkipped: assign&free never "evicts" the instance id it
// is placing (re-placement of the same id over its own stale cells).
func TestSelfEvictionSkipped(t *testing.T) {
	e := figure1()
	a := e.OpIndex("A")
	for _, m := range allModules(t, e, 0) {
		m.AssignFree(a, 0, 7)
		ev := m.AssignFree(a, 0, 7) // same id, same place
		if len(ev) != 0 {
			t.Fatalf("self-eviction: %v", ev)
		}
	}
}

// Property: Free is idempotent and only releases the given id's cells.
func TestQuickFreeIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		d := NewDiscrete(e, 0)
		type pl struct{ op, cyc, id int }
		var placed []pl
		id := 1
		for i := 0; i < 25; i++ {
			op := rng.Intn(len(e.Ops))
			cyc := rng.Intn(12)
			if d.Check(op, cyc) {
				d.Assign(op, cyc, id)
				placed = append(placed, pl{op, cyc, id})
				id++
			}
		}
		if len(placed) == 0 {
			return true
		}
		// Free one instance twice; every other instance's cells stay.
		v := placed[rng.Intn(len(placed))]
		d.Free(v.op, v.cyc, v.id)
		d.Free(v.op, v.cyc, v.id)
		for _, p := range placed {
			if p.id == v.id || len(e.Ops[p.op].Table.Uses) == 0 {
				continue // empty tables trivially pass Check
			}
			if d.Check(p.op, p.cyc) {
				return false // its cells were wrongly released
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStateBytes: memory accounting matches the paper's ordering — the
// packed bitvector stores several cycles per word, the discrete table one
// owner field per cell.
func TestStateBytes(t *testing.T) {
	e := figure1() // 5 resources
	ii := 24
	d := NewDiscrete(e, ii)
	bv, err := NewBitvector(e, 12, 64, ii) // 12 cycles per word
	if err != nil {
		t.Fatal(err)
	}
	db, bb := d.StateBytes(), bv.StateBytes()
	if db <= 0 || bb <= 0 {
		t.Fatalf("footprints: discrete %d, bitvector %d", db, bb)
	}
	if bb >= db {
		t.Errorf("bitvector state (%d B) not smaller than discrete (%d B)", bb, db)
	}
}
