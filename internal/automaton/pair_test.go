package automaton

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

func newPair(t testing.TB, e *resmodel.Expanded) *PairModule {
	t.Helper()
	p, err := NewPairModule(e, DefaultLimit())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPairModuleBasics(t *testing.T) {
	e := machines.Example().Expand()
	p := newPair(t, e)
	a, b := e.OpIndex("A"), e.OpIndex("B")

	if !p.Check(a, 5) {
		t.Fatal("empty schedule rejects A@5")
	}
	p.Assign(a, 5, 1)
	// B at 6 conflicts (1 in F[B][A]); B at 5 and 7 do not.
	if p.Check(b, 6) {
		t.Error("B@6 accepted next to A@5")
	}
	if !p.Check(b, 5) || !p.Check(b, 7) {
		t.Error("B@5 or B@7 rejected")
	}
	// The unrestricted model: insert BEFORE the existing op. A@5 means B
	// cannot start at cycle 4 (its r1@0 meets A's r1@1? B@4: B uses r1 at
	// 4, A uses r1 at 6 — no; F[B][A]=1 means B@6 bad. F[A][B]=-1 means
	// A 1 before B: A@5 with B@6. For insertion before: B@4 has A issued
	// 1 cycle after B -> -1 in F[B][A]? Check directly:
	want := !overlapsAt(e, b, 4, a, 5)
	if p.Check(b, 4) != want {
		t.Errorf("B@4 = %v, want %v", p.Check(b, 4), want)
	}
	p.Free(a, 5, 1)
	if !p.Check(b, 6) {
		t.Error("B@6 rejected after Free")
	}
}

func overlapsAt(e *resmodel.Expanded, op1, t1, op2, t2 int) bool {
	return tablesOverlap(e.Ops[op1].Table, t1, e.Ops[op2].Table, t2)
}

// TestPairModuleNestedConflict: the case a naive forward/reverse state
// lookup misses — a short op nested inside a long op's span — must be
// caught by the propagation step.
func TestPairModuleNestedConflict(t *testing.T) {
	b := resmodel.NewBuilder("nested")
	b.Resources("issue", "stage")
	b.Op("long", 8).Use("issue", 0).Use("stage", 6) // uses stage late
	b.Op("short", 1).Use("issue", 0).Use("stage", 1)
	e := b.Build().Expand()
	p := newPair(t, e)
	long, short := e.OpIndex("long"), e.OpIndex("short")

	// short at cycle 7 uses stage at 8... place short first, then try
	// long at 2 whose stage usage lands at 8: conflict, and short@7 is
	// strictly inside [2, 2+span(long)) with a later start.
	p.Assign(short, 7, 1)
	if p.Check(long, 2) {
		t.Fatal("nested conflict missed: long@2 stage@8 vs short@7 stage@8")
	}
	if !p.Check(long, 3) {
		t.Fatal("long@3 should fit (stage at 9)")
	}
	// Insert the long op BEFORE the short one in time with no conflict.
	if !p.Check(long, 0) {
		t.Fatal("long@0 should fit (stage at 6)")
	}
}

// Property: PairModule answers every check/assign/free workload exactly
// like the discrete reservation-table module, over random machines and
// arbitrary (unrestricted) insertion orders.
func TestQuickPairModuleVsDiscrete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		p, err := NewPairModule(e, DefaultLimit())
		if err != nil {
			return false
		}
		d := query.NewDiscrete(e, 0)
		type placed struct{ op, cycle, id int }
		var live []placed
		nextID := 1
		for step := 0; step < 120; step++ {
			op := rng.Intn(len(e.Ops))
			cycle := rng.Intn(25)
			switch rng.Intn(3) {
			case 0:
				if p.Check(op, cycle) != d.Check(op, cycle) {
					return false
				}
			case 1:
				if d.Check(op, cycle) {
					// keep both consistent: only assign when free
					p.Assign(op, cycle, nextID)
					d.Assign(op, cycle, nextID)
					live = append(live, placed{op, cycle, nextID})
					nextID++
				}
			case 2:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					pl := live[i]
					live = append(live[:i], live[i+1:]...)
					p.Free(pl.op, pl.cycle, pl.id)
					d.Free(pl.op, pl.cycle, pl.id)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: AssignFree evicts exactly the overlapping instances, matching
// the discrete module.
func TestQuickPairAssignFreeVsDiscrete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		p, err := NewPairModule(e, DefaultLimit())
		if err != nil {
			return false
		}
		d := query.NewDiscrete(e, 0)
		nextID := 1
		for step := 0; step < 50; step++ {
			op := rng.Intn(len(e.Ops))
			cycle := rng.Intn(15)
			id := nextID
			nextID++
			evP := p.AssignFree(op, cycle, id)
			evD := d.AssignFree(op, cycle, id)
			if len(evP) != len(evD) {
				return false
			}
			got := map[int]bool{}
			for _, x := range evP {
				got[x] = true
			}
			for _, x := range evD {
				if !got[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPairModuleStatesStoredGrows(t *testing.T) {
	e := machines.Example().Expand()
	p := newPair(t, e)
	before := p.StatesStored()
	p.Assign(e.OpIndex("B"), 90, 1)
	if p.StatesStored() <= before {
		t.Errorf("StatesStored did not grow: %d -> %d", before, p.StatesStored())
	}
	p.Reset()
	if p.Counters().CheckCalls != 0 || len(p.inst) != 0 {
		t.Errorf("Reset incomplete")
	}
	if !p.Check(e.OpIndex("B"), 90) {
		t.Errorf("after Reset, B@90 rejected")
	}
}

func TestPairModuleCheckWithAlt(t *testing.T) {
	b := resmodel.NewBuilder("alts")
	b.Resources("p0", "p1")
	b.Op("add", 1).Use("p0", 0).Alt().Use("p1", 0)
	e := b.Build().Expand()
	p := newPair(t, e)
	op, ok := p.CheckWithAlt(0, 0)
	if !ok || op != 0 {
		t.Fatalf("CheckWithAlt = (%d, %v)", op, ok)
	}
	p.Assign(0, 0, 1)
	op, ok = p.CheckWithAlt(0, 0)
	if !ok || e.Ops[op].Name != "add.1" {
		t.Fatalf("CheckWithAlt with p0 busy = (%d, %v)", op, ok)
	}
}

// TestPairSteadyStateZeroAlloc is the automaton twin of the query
// package's TestDisabledMetricsHotPathZeroAlloc: the pair module's
// steady-state hot path — point checks, range scans, assign/free churn —
// allocates nothing.
func TestPairSteadyStateZeroAlloc(t *testing.T) {
	e := machines.Example().Expand()
	p := newPair(t, e)
	ops := len(e.Ops)
	warm := func() {
		for c := 0; c < 24; c++ {
			for op := 0; op < ops; op++ {
				if p.Check(op, c) {
					p.Assign(op, c, c*ops+op)
					p.Free(op, c, c*ops+op)
				}
				p.FirstFree(op, c, c+8)
				p.FirstFreeWithAlt(op%len(e.AltGroup), c, c+8)
			}
		}
	}
	warm() // grow the horizon, instance buckets and eviction scratch
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Errorf("steady-state pair-module ops allocate %.1f per pass, want 0", allocs)
	}
}

// TestPairRangeMatchesNaive pins the range queries against the naive
// per-cycle reference on partially filled schedules, and pins the
// FirstFreeCycles accounting to the naive-equivalent probe count, the
// unit every backend charges range queries in.
func TestPairRangeMatchesNaive(t *testing.T) {
	for _, name := range []string{"example", "mips"} {
		m := machines.ByName(name)
		red := core.Reduce(m.Expand(), core.Objective{Kind: core.ResUses})
		if err := red.Verify(); err != nil {
			t.Fatal(err)
		}
		e := red.Reduced
		p := newPair(t, e)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			op, c := rng.Intn(len(e.Ops)), rng.Intn(24)
			if p.Check(op, c) {
				p.Assign(op, c, i)
			}
		}
		for i := 0; i < 60; i++ {
			lo := rng.Intn(24)
			hi := lo + rng.Intn(16)
			op := rng.Intn(len(e.Ops))
			before := p.Counters().FirstFreeCycles
			gc, gok := p.FirstFree(op, lo, hi)
			wc, wok := query.FirstFreeNaive(p, op, lo, hi)
			if gc != wc || gok != wok {
				t.Fatalf("%s: FirstFree(%d, %d, %d) = (%d, %v), naive (%d, %v)",
					name, op, lo, hi, gc, gok, wc, wok)
			}
			if want := query.RangeProbes(lo, hi, gc, gok); p.Counters().FirstFreeCycles-before != want {
				t.Fatalf("%s: FirstFree(%d, %d, %d) charged %d naive-equivalent probes, want %d",
					name, op, lo, hi, p.Counters().FirstFreeCycles-before, want)
			}

			orig := rng.Intn(len(e.AltGroup))
			ga, gc2, gok2 := p.FirstFreeWithAlt(orig, lo, hi)
			wa, wc2, wok2 := query.FirstFreeWithAltNaive(p, orig, lo, hi)
			if ga != wa || gc2 != wc2 || gok2 != wok2 {
				t.Fatalf("%s: FirstFreeWithAlt(%d, %d, %d) = (%d, %d, %v), naive (%d, %d, %v)",
					name, orig, lo, hi, ga, gc2, gok2, wa, wc2, wok2)
			}
		}
	}
}

// TestPairResetInPlace pins the arena-reuse contract: Reset returns the
// module to the empty schedule without reallocating its grown state, so
// steady-state corpus scheduling through sched.Arena stays
// allocation-free on the pair module too.
func TestPairResetInPlace(t *testing.T) {
	e := machines.Example().Expand()
	p := newPair(t, e)
	fresh := newPair(t, e)
	pass := func() {
		for c := 0; c < 20; c++ {
			for op := 0; op < len(e.Ops); op++ {
				if p.Check(op, c) {
					p.Assign(op, c, c*len(e.Ops)+op)
				}
			}
		}
		p.Reset()
	}
	pass() // warm: grow horizon and buckets once
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("assign-churn + Reset allocates %.1f per pass after warmup, want 0", allocs)
	}
	if got := p.Counters(); *got != (query.Counters{}) {
		t.Errorf("counters not cleared by Reset: %+v", got)
	}
	for c := 0; c < 25; c++ {
		for op := 0; op < len(e.Ops); op++ {
			if got, want := p.Check(op, c), fresh.Check(op, c); got != want {
				t.Fatalf("after Reset, Check(%d, %d) = %v, fresh module says %v", op, c, got, want)
			}
		}
	}
}
