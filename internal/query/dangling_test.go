package query

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/resmodel"
)

// TestDanglingBasics: a long op issued near the end of a predecessor
// block blocks the conflicting cycles at the start of the successor.
func TestDanglingBasics(t *testing.T) {
	ex := figure1()
	bop := ex.OpIndex("B")

	for _, mk := range []func() DanglingSeeder{
		func() DanglingSeeder { return NewDiscrete(ex, 0) },
		func() DanglingSeeder {
			bv, err := NewBitvector(ex, 4, 64, 0)
			if err != nil {
				t.Fatal(err)
			}
			return bv
		},
	} {
		m := mk()
		// B issued 3 cycles before block entry: its r3@{2..5} usages land
		// at successor cycles {-1, 0, 1, 2}, r4@{6,7} at {3, 4}.
		if err := m.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 100}}); err != nil {
			t.Fatal(err)
		}
		// A new B at cycle 0 needs r3 at {2..5}: cycles 2 collides with
		// the dangling r3@2 (from usage 5 at -3+5=2). Conflict expected.
		if m.Check(bop, 0) {
			t.Errorf("B@0 accepted despite dangling B issued at -3")
		}
		// B at cycle 3: usages r3@{5..8}, r4@{9,10}; dangling r3 ends at 2,
		// r4 occupies {3,4}: B@3 uses r4 at 9,10 — no overlap. Allowed.
		if !m.Check(bop, 3) {
			t.Errorf("B@3 rejected")
		}
	}
}

func TestDanglingErrors(t *testing.T) {
	ex := figure1()
	bop := ex.OpIndex("B")
	d := NewDiscrete(ex, 0)
	if err := d.SeedDangling([]Dangling{{Op: bop, IssueCycle: 0, ID: 1}}); err == nil {
		t.Error("non-negative issue cycle accepted")
	}
	d2 := NewDiscrete(ex, 0)
	d2.Assign(bop, 5, 1)
	if err := d2.SeedDangling([]Dangling{{Op: bop, IssueCycle: -1, ID: 2}}); err == nil {
		t.Error("seeding a non-empty schedule accepted")
	}
	d3 := NewDiscrete(ex, 4)
	if err := d3.SeedDangling(nil); err == nil {
		t.Error("seeding a modulo table accepted")
	}
	// Colliding dangling requirements (two Bs one cycle apart share r3).
	d4 := NewDiscrete(ex, 0)
	err := d4.SeedDangling([]Dangling{
		{Op: bop, IssueCycle: -3, ID: 1},
		{Op: bop, IssueCycle: -4, ID: 2},
	})
	if err == nil {
		t.Error("colliding dangling requirements accepted")
	}
}

func TestDanglingFromExtraction(t *testing.T) {
	ex := figure1()
	a, bop := ex.OpIndex("A"), ex.OpIndex("B")
	d := NewDiscrete(ex, 0)
	d.Assign(a, 0, 1)   // span 3: ends at cycle 3, before exit
	d.Assign(bop, 4, 2) // span 8: extends to cycle 12, past exit 6
	span := func(op int) int { return ex.Ops[op].Table.Span() }
	ds := DanglingFrom(d.Instances(), span, 6)
	if len(ds) != 1 || ds[0].ID != 2 || ds[0].Op != bop || ds[0].IssueCycle != -2 {
		t.Fatalf("DanglingFrom = %+v, want B re-anchored at -2", ds)
	}
}

// doubleUseMachine builds an expanded description whose only operation
// reserves the SAME (resource, cycle) cell twice — a degenerate but
// legal reservation table (e.g. produced by a generator that does not
// normalize). Constructed directly so no Normalize pass dedups it.
func doubleUseMachine() *resmodel.Expanded {
	return &resmodel.Expanded{
		Name:      "double-use",
		Resources: []string{"r0", "r1"},
		Ops: []resmodel.ExpandedOp{{
			Name:    "D",
			Latency: 1,
			Table: resmodel.Table{Uses: []resmodel.Usage{
				{Resource: 0, Cycle: 0},
				{Resource: 1, Cycle: 1},
				{Resource: 1, Cycle: 1}, // double use of the same cell
			}},
		}},
		AltGroup: [][]int{{0}},
	}
}

// TestSeedDanglingDoubleUse is the regression test for the bitvector
// false positive: one dangling op whose reservation table uses the same
// (resource, cycle) cell twice must seed cleanly on BOTH representations
// — Discrete tolerates same-ID overlap, and the bitvector path must
// agree instead of reporting a self-collision.
func TestSeedDanglingDoubleUse(t *testing.T) {
	e := doubleUseMachine()
	// IssueCycle -1: r0@0 lands at -1 (consumed in the predecessor), the
	// doubled r1@1 lands at cycle 0 twice.
	ds := []Dangling{{Op: 0, IssueCycle: -1, ID: 7}}

	d := NewDiscrete(e, 0)
	if err := d.SeedDangling(ds); err != nil {
		t.Fatalf("Discrete.SeedDangling on a double-use table: %v", err)
	}
	bv, err := NewBitvector(e, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bv.SeedDangling(ds); err != nil {
		t.Errorf("Bitvector.SeedDangling on a double-use table: %v", err)
	}
	// Both representations must answer identically after seeding.
	for cyc := 0; cyc < 6; cyc++ {
		if got, want := bv.Check(0, cyc), d.Check(0, cyc); got != want {
			t.Errorf("Check(D, %d): bitvector %v, discrete %v", cyc, got, want)
		}
	}

	// Genuine collisions (two distinct instances on one cell) must still
	// error on both representations.
	collide := []Dangling{
		{Op: 0, IssueCycle: -1, ID: 1},
		{Op: 0, IssueCycle: -1, ID: 2},
	}
	if err := NewDiscrete(e, 0).SeedDangling(collide); err == nil {
		t.Error("Discrete accepted a genuine two-instance collision")
	}
	bv2, _ := NewBitvector(e, 4, 64, 0)
	if err := bv2.SeedDangling(collide); err == nil {
		t.Error("Bitvector accepted a genuine two-instance collision")
	}
}

// TestSeedDanglingUnionParity drives randomized dangling sets — with
// deliberate overlaps, since different predecessors may dangle the same
// requirement — through Discrete.SeedDanglingUnion and
// Bitvector.SeedDanglingUnion and checks that every contention query
// answers identically afterwards, and that conflicting AssignFrees evict
// the same seeded instances in the same order: the last listed entry
// owns a shared cell on both (DESIGN §1's multi-predecessor boundary
// condition must not depend on the representation).
func TestSeedDanglingUnionParity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		k := MaxCyclesPerWord(len(e.Resources), 64)
		if k < 1 {
			continue
		}

		// Random dangling set: a few ops issued shortly before the entry,
		// drawn with replacement so overlapping requirements are common.
		var ds []Dangling
		for i := 0; i < 2+rng.Intn(5); i++ {
			op := rng.Intn(len(e.Ops))
			span := e.Ops[op].Table.Span()
			if span < 2 {
				continue
			}
			ds = append(ds, Dangling{Op: op, IssueCycle: -1 - rng.Intn(span-1), ID: 100 + i})
		}
		if len(ds) == 0 {
			continue
		}

		d := NewDiscrete(e, 0)
		if err := d.SeedDanglingUnion(ds); err != nil {
			t.Fatalf("seed %d: Discrete.SeedDanglingUnion: %v", seed, err)
		}
		bv, err := NewBitvector(e, k, 64, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := bv.SeedDanglingUnion(ds); err != nil {
			t.Fatalf("seed %d: Bitvector.SeedDanglingUnion: %v", seed, err)
		}
		for op := range e.Ops {
			for cyc := 0; cyc < 12; cyc++ {
				if got, want := bv.Check(op, cyc), d.Check(op, cyc); got != want {
					t.Fatalf("seed %d: Check(op %d, cycle %d): bitvector %v, discrete %v",
						seed, op, cyc, got, want)
				}
			}
		}
		for step := 0; step < 8; step++ {
			op, cyc := rng.Intn(len(e.Ops)), rng.Intn(8)
			want := slices.Clone(d.AssignFree(op, cyc, step))
			if got := bv.AssignFree(op, cyc, step); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: AssignFree(op %d, cycle %d) evicted %v on bitvector, %v on discrete",
					seed, step, op, cyc, got, want)
			}
		}

		// SeedDangling (the colliding variant) must agree on whether the
		// same set is an error.
		dErr := NewDiscrete(e, 0).SeedDangling(ds)
		bv2, err := NewBitvector(e, k, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		bErr := bv2.SeedDangling(ds)
		if (dErr == nil) != (bErr == nil) {
			t.Fatalf("seed %d: SeedDangling disagreement: discrete %v, bitvector %v", seed, dErr, bErr)
		}
	}
}

// Property: scheduling a block with dangling requirements is exactly
// equivalent to scheduling the concatenated trace on one long table —
// the paper's claim that boundary conditions are handled precisely.
func TestQuickDanglingEquivalentToConcatenation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		span := func(op int) int { return e.Ops[op].Table.Span() }

		// Schedule a predecessor block greedily on a single long table.
		long := NewDiscrete(e, 0)
		exit := 6 + rng.Intn(6)
		id := 1
		for step := 0; step < 10; step++ {
			op := rng.Intn(len(e.Ops))
			cyc := rng.Intn(exit)
			if long.Check(op, cyc) {
				long.Assign(op, cyc, id)
				id++
			}
		}
		// Successor module seeded with the dangling requirements.
		ds := DanglingFrom(long.Instances(), span, exit)
		// Order for determinism.
		sort.Slice(ds, func(i, j int) bool { return ds[i].ID < ds[j].ID })
		succ := NewDiscrete(e, 0)
		if err := succ.SeedDangling(ds); err != nil {
			// Collisions cannot happen: the long table verified them.
			return false
		}
		// Every query in the successor block must answer exactly like the
		// concatenated table at offset exit.
		for step := 0; step < 60; step++ {
			op := rng.Intn(len(e.Ops))
			cyc := rng.Intn(12)
			want := long.Check(op, exit+cyc)
			if succ.Check(op, cyc) != want {
				return false
			}
			if want && rng.Intn(2) == 0 {
				long.Assign(op, exit+cyc, id)
				succ.Assign(op, cyc, id)
				id++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// danglingSeeders returns the linear modules that support seeding: the
// discrete table and the bitvector at one cycle per word and at the
// densest packing.
func danglingSeeders(t *testing.T, e *resmodel.Expanded) map[string]DanglingSeeder {
	t.Helper()
	out := map[string]DanglingSeeder{"discrete": NewDiscrete(e, 0)}
	for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
		bv, err := NewBitvector(e, k, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("bitvector/k=%d", k)] = bv
	}
	return out
}

// TestAssignFreeEvictsDanglingInstance: a conflicting AssignFree evicts a
// seeded dangling instance like any other. Its usages before the entry
// are charged but never written, and its in-block cells read free
// afterwards.
func TestAssignFreeEvictsDanglingInstance(t *testing.T) {
	e := figure1()
	bop := e.OpIndex("B")
	for name, m := range danglingSeeders(t, e) {
		if err := m.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 1}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ev := m.AssignFree(bop, 0, 2); !slices.Equal(ev, []int{1}) {
			t.Fatalf("%s: AssignFree(B, 0) evicted %v, want [1]", name, ev)
		}
		m.Free(bop, 0, 2)
		for cyc := 0; cyc < 12; cyc++ {
			if !m.Check(bop, cyc) {
				t.Errorf("%s: B@%d blocked after evicting the dangling B and freeing its evictor", name, cyc)
			}
		}
	}
	// The eviction walks all 8 usages of each B: 8 for the new B, 8 for
	// the dangling one, one of which lies before the entry.
	d := NewDiscrete(e, 0)
	if err := d.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	d.AssignFree(bop, 0, 2)
	if got := d.Counters().AssignFreeWork; got != 16 {
		t.Errorf("discrete AssignFree work = %d, want 16", got)
	}
}

// TestFreeDanglingInstance: Free releases a seeded dangling instance at
// its negative issue cycle, charging every usage or word.
func TestFreeDanglingInstance(t *testing.T) {
	e := figure1()
	bop := e.OpIndex("B")
	for name, m := range danglingSeeders(t, e) {
		if err := m.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 1}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Check(bop, 0) {
			t.Fatalf("%s: B@0 free despite the dangling B", name)
		}
		m.Free(bop, -3, 1)
		for cyc := 0; cyc < 12; cyc++ {
			if !m.Check(bop, cyc) {
				t.Errorf("%s: B@%d blocked after freeing the dangling B", name, cyc)
			}
		}
		if len(m.(interface {
			Instances() map[int]struct{ Op, Cycle int }
		}).Instances()) != 0 {
			t.Errorf("%s: dangling instance still scheduled after Free", name)
		}
	}
	d := NewDiscrete(e, 0)
	if err := d.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	d.Free(bop, -3, 1)
	if got := d.Counters().FreeWork; got != 8 {
		t.Errorf("discrete Free work = %d, want 8 usages", got)
	}
	bv, err := NewBitvector(e, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bv.SeedDangling([]Dangling{{Op: bop, IssueCycle: -3, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	bv.Free(bop, -3, 1)
	if got, want := bv.Counters().FreeWork, int64(len(bv.ct.words[bop][0])); got != want {
		t.Errorf("bitvector k=1 Free work = %d, want %d words", got, want)
	}
}
