package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/resmodel"
)

func figure1() *resmodel.Expanded {
	b := resmodel.NewBuilder("example")
	b.Resources("r0", "r1", "r2", "r3", "r4")
	b.Op("A", 3).Stages(0, "r0", "r1", "r2")
	b.Op("B", 8).
		Use("r1", 0).
		Use("r2", 1).
		UseRange("r3", 2, 5).
		UseRange("r4", 6, 7)
	return b.Build().Expand()
}

// allModules builds one module of every implementation for a machine.
func allModules(t *testing.T, e *resmodel.Expanded, ii int) map[string]Module {
	t.Helper()
	ms := map[string]Module{
		"discrete": NewDiscrete(e, ii),
	}
	for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
		if k < 1 {
			continue
		}
		bv, err := NewBitvector(e, k, 64, ii)
		if err != nil {
			t.Fatalf("NewBitvector(k=%d): %v", k, err)
		}
		ms["bitvec"+string(rune('0'+k))] = bv
	}
	return ms
}

func TestCheckAssignFreeLinear(t *testing.T) {
	e := figure1()
	a, bop := e.OpIndex("A"), e.OpIndex("B")
	for name, m := range allModules(t, e, 0) {
		if !m.Check(a, 0) {
			t.Fatalf("%s: Check(A,0) on empty table = false", name)
		}
		m.Assign(a, 0, 1)
		// B at 1 conflicts (1 in F[B][A]); B at 0 and 2 do not.
		if m.Check(bop, 1) {
			t.Errorf("%s: Check(B,1) after A@0 = true, want false", name)
		}
		if !m.Check(bop, 0) {
			t.Errorf("%s: Check(B,0) after A@0 = false, want true", name)
		}
		if !m.Check(bop, 2) {
			t.Errorf("%s: Check(B,2) after A@0 = false, want true", name)
		}
		// A self-conflicts only at distance 0.
		if m.Check(a, 0) {
			t.Errorf("%s: Check(A,0) after A@0 = true, want false", name)
		}
		if !m.Check(a, 1) {
			t.Errorf("%s: Check(A,1) after A@0 = false, want true", name)
		}
		m.Free(a, 0, 1)
		if !m.Check(bop, 1) {
			t.Errorf("%s: Check(B,1) after Free = false, want true", name)
		}
		if m.Counters().CheckCalls == 0 || m.Counters().CheckWork == 0 {
			t.Errorf("%s: counters not accumulating", name)
		}
		m.Reset()
		if m.Counters().CheckCalls != 0 {
			t.Errorf("%s: Reset did not clear counters", name)
		}
	}
}

func TestAssignFreeEviction(t *testing.T) {
	e := figure1()
	a, bop := e.OpIndex("A"), e.OpIndex("B")
	for name, m := range allModules(t, e, 0) {
		m.Assign(a, 0, 7)
		// B at 1 conflicts with A@0: assign&free must evict instance 7.
		evicted := m.AssignFree(bop, 1, 8)
		if len(evicted) != 1 || evicted[0] != 7 {
			t.Fatalf("%s: AssignFree evicted %v, want [7]", name, evicted)
		}
		// A@0 must now be schedulable again except where B@1 conflicts:
		// A 1 cycle before B is forbidden (-1 in F[A][B] means A@0 with B@1).
		if m.Check(a, 0) {
			t.Errorf("%s: Check(A,0) with B@1 = true, want false", name)
		}
		if !m.Check(a, 1) {
			t.Errorf("%s: Check(A,1) with B@1 = false, want true", name)
		}
		if got := m.Counters().Unscheduled; got != 1 {
			t.Errorf("%s: Unscheduled = %d, want 1", name, got)
		}
		// Non-conflicting assign&free evicts nothing.
		if ev := m.AssignFree(a, 1, 9); len(ev) != 0 {
			t.Errorf("%s: AssignFree(A,1) evicted %v, want none", name, ev)
		}
	}
}

func TestBitvectorModeTransition(t *testing.T) {
	e := figure1()
	a, bop := e.OpIndex("A"), e.OpIndex("B")
	bv, err := NewBitvector(e, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bv.updateMode {
		t.Fatalf("fresh module already in update mode")
	}
	bv.AssignFree(a, 0, 1) // no conflict: stays optimistic
	if bv.updateMode {
		t.Fatalf("conflict-free AssignFree entered update mode")
	}
	ev := bv.AssignFree(bop, 1, 2) // conflicts with A@0
	if !bv.updateMode {
		t.Fatalf("conflicting AssignFree did not enter update mode")
	}
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
	if bv.Counters().ModeTransitions != 1 {
		t.Errorf("ModeTransitions = %d, want 1", bv.Counters().ModeTransitions)
	}
	// Later conflicting AssignFree stays in update mode (no new transition).
	bv.AssignFree(a, 0, 3)
	if bv.Counters().ModeTransitions != 1 {
		t.Errorf("ModeTransitions = %d after second conflict, want 1", bv.Counters().ModeTransitions)
	}
}

func TestCheckWithAlt(t *testing.T) {
	b := resmodel.NewBuilder("alts")
	b.Resources("p0", "p1")
	b.Op("add", 1).Use("p0", 0).Alt().Use("p1", 0)
	b.Op("other", 1).Use("p0", 0)
	e := b.Build().Expand()
	for name, m := range allModules(t, e, 0) {
		op, ok := m.CheckWithAlt(0, 0)
		if !ok || op != 0 {
			t.Fatalf("%s: CheckWithAlt on empty = (%d, %v), want (0, true)", name, op, ok)
		}
		m.Assign(e.OpIndex("other"), 0, 1) // occupies p0 at 0
		op, ok = m.CheckWithAlt(0, 0)
		if !ok || e.Ops[op].Name != "add.1" {
			t.Fatalf("%s: CheckWithAlt with p0 busy = (%d, %v), want add.1", name, op, ok)
		}
		m.Assign(op, 0, 2) // now p1 busy too
		if _, ok := m.CheckWithAlt(0, 0); ok {
			t.Errorf("%s: CheckWithAlt with both ports busy succeeded", name)
		}
		if m.Counters().CheckWithAltCalls != 3 {
			t.Errorf("%s: CheckWithAltCalls = %d, want 3", name, m.Counters().CheckWithAltCalls)
		}
	}
}

func TestModuloWrapAround(t *testing.T) {
	e := figure1()
	bop := e.OpIndex("B")
	// II = 5: B spans 8 cycles, so its table folds; usages at cycles 5,6,7
	// land on MRT columns 0,1,2. No self-collision: r3@5 -> col 0 (r3),
	// r4@6 -> col 1 (r4), r4@7 -> col 2 (r4); distinct resources at those
	// columns, so B is schedulable.
	for name, m := range allModules(t, e, 5) {
		if !m.Schedulable(bop) {
			t.Fatalf("%s: B unschedulable at II=5", name)
		}
		if !m.Check(bop, 0) {
			t.Fatalf("%s: Check(B,0) on empty MRT = false", name)
		}
		m.Assign(bop, 0, 1)
		// A second B at any offset conflicts (F[B][B] covers 0..3, and the
		// fold adds more); in particular offset 4 wraps r3@2-5 onto itself.
		for off := 0; off < 5; off++ {
			if m.Check(bop, off) {
				t.Errorf("%s: Check(B,%d) with B@0 on II=5 MRT = true, want false", name, off)
			}
		}
		m.Free(bop, 0, 1)
		if !m.Check(bop, 3) {
			t.Errorf("%s: Check(B,3) after Free = false", name)
		}
	}
}

func TestModuloSelfConflict(t *testing.T) {
	b := resmodel.NewBuilder("m")
	b.Resources("r")
	b.Op("x", 1).Use("r", 0).Use("r", 4) // folds onto itself at II=4
	e := b.Build().Expand()
	for name, m := range allModules(t, e, 4) {
		if m.Schedulable(0) {
			t.Errorf("%s: op with 0 and 4 usage schedulable at II=4", name)
		}
		if m.Check(0, 0) {
			t.Errorf("%s: Check succeeded for self-conflicting op", name)
		}
	}
	// At II=5 the same op is fine.
	for name, m := range allModules(t, e, 5) {
		if !m.Schedulable(0) || !m.Check(0, 0) {
			t.Errorf("%s: op not schedulable at II=5", name)
		}
	}
}

func TestModuloNegativeCycles(t *testing.T) {
	e := figure1()
	a := e.OpIndex("A")
	for name, m := range allModules(t, e, 4) {
		m.Assign(a, -3, 1) // -3 mod 4 == 1
		if m.Check(a, 1) {
			t.Errorf("%s: Check(A,1) after Assign(A,-3) = true, want false", name)
		}
		if m.Check(a, -7) { // also column 1
			t.Errorf("%s: Check(A,-7) = true, want false", name)
		}
		if !m.Check(a, 0) {
			t.Errorf("%s: Check(A,0) = false, want true", name)
		}
	}
}

func TestLinearNegativeCyclePanics(t *testing.T) {
	e := figure1()
	for name, m := range allModules(t, e, 0) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Check at negative cycle on linear table did not panic", name)
				}
			}()
			m.Check(0, -1)
		}()
	}
}

func TestNewBitvectorErrors(t *testing.T) {
	e := figure1() // 5 resources
	if _, err := NewBitvector(e, 0, 64, 0); err == nil {
		t.Errorf("k=0 accepted")
	}
	if _, err := NewBitvector(e, 13, 64, 0); err == nil {
		t.Errorf("13 cycles x 5 resources accepted in 64-bit word")
	}
	if _, err := NewBitvector(e, 1, 16, 0); err == nil {
		t.Errorf("wordBits=16 accepted")
	}
	if _, err := NewBitvector(e, 1, 64, -1); err == nil {
		t.Errorf("negative II accepted")
	}
	if bv, err := NewBitvector(e, 12, 64, 3); err != nil || bv.K() != 3 {
		t.Errorf("k not capped at II: k=%d err=%v", bv.K(), err)
	}
	if MaxCyclesPerWord(5, 64) != 12 || MaxCyclesPerWord(0, 64) != 0 || MaxCyclesPerWord(56, 64) != 1 {
		t.Errorf("MaxCyclesPerWord wrong")
	}
}

// refSchedule is a brute-force reference: a multiset of reserved
// (resource, cycle) cells with owners, checked usage by usage.
type refSchedule struct {
	e     *resmodel.Expanded
	ii    int
	cells map[[2]int]int // (resource, column) -> id
	inst  map[int]instance
}

func newRef(e *resmodel.Expanded, ii int) *refSchedule {
	return &refSchedule{e: e, ii: ii, cells: map[[2]int]int{}, inst: map[int]instance{}}
}

func (r *refSchedule) col(c int) int {
	if r.ii == 0 {
		return c
	}
	c %= r.ii
	if c < 0 {
		c += r.ii
	}
	return c
}

func (r *refSchedule) selfConf(op int) bool {
	if r.ii == 0 {
		return false
	}
	seen := map[[2]int]bool{}
	for _, u := range r.e.Ops[op].Table.Uses {
		k := [2]int{u.Resource, r.col(u.Cycle)}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

func (r *refSchedule) check(op, cycle int) bool {
	if r.selfConf(op) {
		return false
	}
	for _, u := range r.e.Ops[op].Table.Uses {
		if _, busy := r.cells[[2]int{u.Resource, r.col(cycle + u.Cycle)}]; busy {
			return false
		}
	}
	return true
}

func (r *refSchedule) assign(op, cycle, id int) {
	for _, u := range r.e.Ops[op].Table.Uses {
		r.cells[[2]int{u.Resource, r.col(cycle + u.Cycle)}] = id
	}
	r.inst[id] = instance{op, cycle}
}

func (r *refSchedule) free(id int) {
	in, ok := r.inst[id]
	if !ok {
		return
	}
	for _, u := range r.e.Ops[in.op].Table.Uses {
		k := [2]int{u.Resource, r.col(in.cycle + u.Cycle)}
		if r.cells[k] == id {
			delete(r.cells, k)
		}
	}
	delete(r.inst, id)
}

func (r *refSchedule) assignFree(op, cycle, id int) map[int]bool {
	evicted := map[int]bool{}
	for _, u := range r.e.Ops[op].Table.Uses {
		k := [2]int{u.Resource, r.col(cycle + u.Cycle)}
		if other, busy := r.cells[k]; busy && other != id && !evicted[other] {
			evicted[other] = true
			r.free(other)
		}
	}
	r.assign(op, cycle, id)
	return evicted
}

// TestQuickModulesAgreeWithReference drives every module implementation —
// over the ORIGINAL and the REDUCED description of random machines — with
// a random check/assign&free/free workload and verifies that every answer
// matches the brute-force reference on the original description. This is
// the paper's end-to-end claim: the reduced description answers every
// contention query identically.
func TestQuickModulesAgreeWithReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		red := core.Reduce(e, core.Objective{Kind: core.ResUses})
		if red.Verify() != nil {
			return false
		}
		ii := 0
		if rng.Intn(2) == 0 {
			ii = 1 + rng.Intn(10)
		}
		var mods []Module
		for _, desc := range []*resmodel.Expanded{e, red.Reduced} {
			mods = append(mods, NewDiscrete(desc, ii))
			for _, k := range []int{1, MaxCyclesPerWord(len(desc.Resources), 64)} {
				if k >= 1 {
					bv, err := NewBitvector(desc, k, 64, ii)
					if err != nil {
						return false
					}
					mods = append(mods, bv)
				}
			}
		}
		ref := newRef(e, ii)

		maxCycle := 20
		nextID := 1
		live := map[int]instance{}
		for step := 0; step < 120; step++ {
			op := rng.Intn(len(e.Ops))
			cycle := rng.Intn(maxCycle)
			if ii > 0 && rng.Intn(4) == 0 {
				cycle -= maxCycle / 2 // exercise negative cycles mod II
			}
			switch rng.Intn(4) {
			case 0, 1: // check
				want := ref.check(op, cycle)
				for _, m := range mods {
					if m.Check(op, cycle) != want {
						return false
					}
				}
			case 2: // assign&free
				if ref.selfConf(op) {
					// Unschedulable at this II: modules must agree.
					for _, m := range mods {
						if m.Schedulable(op) {
							return false
						}
					}
					continue
				}
				id := nextID
				nextID++
				wantEv := ref.assignFree(op, cycle, id)
				for _, m := range mods {
					ev := m.AssignFree(op, cycle, id)
					if len(ev) != len(wantEv) {
						return false
					}
					for _, x := range ev {
						if !wantEv[x] {
							return false
						}
					}
				}
				for evID := range wantEv {
					delete(live, evID)
				}
				live[id] = instance{op, cycle}
			case 3: // free a live instance
				for id, in := range live {
					ref.free(id)
					for _, m := range mods {
						m.Free(in.op, in.cycle, id)
					}
					delete(live, id)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickAssignOnlyPath exercises the plain Assign path (no owner
// fields) against the reference, linear and modulo.
func TestQuickAssignOnlyPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		ii := rng.Intn(8) // 0..7
		var mods []Module
		mods = append(mods, NewDiscrete(e, ii))
		if k := MaxCyclesPerWord(len(e.Resources), 32); k >= 1 {
			bv, err := NewBitvector(e, k, 32, ii)
			if err != nil {
				return false
			}
			mods = append(mods, bv)
		}
		ref := newRef(e, ii)
		nextID := 1
		type placed struct {
			op, cycle, id int
		}
		var placedOps []placed
		for step := 0; step < 80; step++ {
			op := rng.Intn(len(e.Ops))
			cycle := rng.Intn(15)
			want := ref.check(op, cycle)
			for _, m := range mods {
				if m.Check(op, cycle) != want {
					return false
				}
			}
			if want && rng.Intn(2) == 0 {
				id := nextID
				nextID++
				ref.assign(op, cycle, id)
				for _, m := range mods {
					m.Assign(op, cycle, id)
				}
				placedOps = append(placedOps, placed{op, cycle, id})
			} else if len(placedOps) > 0 && rng.Intn(3) == 0 {
				p := placedOps[len(placedOps)-1]
				placedOps = placedOps[:len(placedOps)-1]
				ref.free(p.id)
				for _, m := range mods {
					m.Free(p.op, p.cycle, p.id)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCountersPerCall(t *testing.T) {
	c := Counters{CheckCalls: 4, CheckWork: 10, FreeCalls: 2, FreeWork: 5}
	if c.CheckPerCall() != 2.5 {
		t.Errorf("CheckPerCall = %v", c.CheckPerCall())
	}
	if (&Counters{}).CheckPerCall() != 0 {
		t.Errorf("zero-call average not 0")
	}
	if c.TotalCalls() != 6 || c.TotalWork() != 15 {
		t.Errorf("totals wrong: %d %d", c.TotalCalls(), c.TotalWork())
	}
	c.Reset()
	if c.TotalCalls() != 0 {
		t.Errorf("Reset failed")
	}
}

// TestWorkUnitsMatchTableSizes: an unobstructed Check costs exactly the
// op's usage count (discrete) or non-empty word count (bitvector).
func TestWorkUnitsMatchTableSizes(t *testing.T) {
	e := figure1()
	bop := e.OpIndex("B")

	d := NewDiscrete(e, 0)
	d.Check(bop, 0)
	if got := d.Counters().CheckWork; got != 8 {
		t.Errorf("discrete Check work = %d, want 8 usages", got)
	}

	bv, _ := NewBitvector(e, 4, 64, 0) // B spans 8 cycles -> 2 words at align 0
	bv.Check(bop, 0)
	if got := bv.Counters().CheckWork; got != 2 {
		t.Errorf("bitvec k=4 Check work = %d, want 2 words", got)
	}
	bv2, _ := NewBitvector(e, 1, 64, 0) // 8 non-empty cycles -> 8 words
	bv2.Check(bop, 0)
	if got := bv2.Counters().CheckWork; got != 8 {
		t.Errorf("bitvec k=1 Check work = %d, want 8 words", got)
	}
	if w, w2 := len(bv.ct.words[bop][0]), len(bv2.ct.words[bop][0]); w != 2 || w2 != 8 {
		t.Errorf("charge-table words wrong: %d %d", w, w2)
	}
}
