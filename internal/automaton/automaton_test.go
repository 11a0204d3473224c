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

func TestExampleMachineAutomaton(t *testing.T) {
	e := machines.Example().Expand()
	a, err := BuildForward(e, DefaultLimit())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() < 3 {
		t.Fatalf("suspiciously few states: %d", a.NumStates())
	}
	w := a.Walk()
	aOp, bOp := e.OpIndex("A"), e.OpIndex("B")
	if !w.Issue(aOp) {
		t.Fatalf("cannot issue A at cycle 0 of empty schedule")
	}
	// A self-conflicts at distance 0.
	if w.CanIssue(aOp) {
		t.Errorf("A can issue twice in one cycle")
	}
	w.Advance()
	// B one cycle after A is forbidden (1 in F[B][A]).
	if w.CanIssue(bOp) {
		t.Errorf("B can issue 1 cycle after A")
	}
	w.Advance()
	if !w.Issue(bOp) {
		t.Errorf("B cannot issue 2 cycles after A")
	}
}

// TestAgainstQueryModule: cycle-ordered issue decisions of the automaton
// agree with the reservation-table query module on random machines.
func TestQuickAgainstQueryModule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		a, err := BuildForward(e, DefaultLimit())
		if err != nil {
			// A random machine can legitimately exceed the state limit;
			// the agreement property is conditional on a built automaton.
			return true
		}
		mod := query.NewDiscrete(e, 0)
		w := a.Walk()
		cycle := 0
		id := 0
		for step := 0; step < 200; step++ {
			if rng.Intn(3) == 0 {
				w.Advance()
				cycle++
				continue
			}
			op := rng.Intn(len(e.Ops))
			want := mod.Check(op, cycle)
			if w.CanIssue(op) != want {
				return false
			}
			if want && rng.Intn(2) == 0 {
				if !w.Issue(op) {
					return false
				}
				mod.Assign(op, cycle, id)
				id++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestReverseAutomaton: the reverse automaton recognizes the time-reversed
// schedule. Issuing ops in reverse cycle order with reversed tables must
// accept exactly the schedules the forward automaton accepts forwards.
func TestReverseAutomaton(t *testing.T) {
	e := machines.Example().Expand()
	fwd, err := BuildForward(e, DefaultLimit())
	if err != nil {
		t.Fatal(err)
	}
	rev, err := BuildReverse(e, DefaultLimit())
	if err != nil {
		t.Fatal(err)
	}
	// Schedule: A@0, B@2 — accepted forwards (tested above). Reverse
	// order: the reversed table of each op is anchored at its own span, so
	// replay ops by descending (time + span) completion order.
	type placed struct{ op, time int }
	sched := []placed{{e.OpIndex("A"), 0}, {e.OpIndex("B"), 2}}
	// Forward acceptance.
	wf := fwd.Walk()
	cyc := 0
	for _, p := range sched {
		for cyc < p.time {
			wf.Advance()
			cyc++
		}
		if !wf.Issue(p.op) {
			t.Fatalf("forward automaton rejected valid schedule")
		}
	}
	// Reverse acceptance: issue at reversed issue times
	// rt = maxEnd - (time + span(op)).
	maxEnd := 0
	for _, p := range sched {
		if end := p.time + e.Ops[p.op].Table.Span(); end > maxEnd {
			maxEnd = end
		}
	}
	wr := rev.Walk()
	rcyc := 0
	// Order by reversed time.
	order := []int{1, 0}
	if maxEnd-(sched[0].time+e.Ops[sched[0].op].Table.Span()) <
		maxEnd-(sched[1].time+e.Ops[sched[1].op].Table.Span()) {
		order = []int{0, 1}
	}
	for _, i := range order {
		p := sched[i]
		rt := maxEnd - (p.time + e.Ops[p.op].Table.Span())
		for rcyc < rt {
			wr.Advance()
			rcyc++
		}
		if !wr.Issue(p.op) {
			t.Fatalf("reverse automaton rejected valid schedule (op %d at reversed cycle %d)", p.op, rt)
		}
	}
}

func TestMIPSAutomatonSize(t *testing.T) {
	// The automaton is built over the reduced description: it accepts
	// exactly the same schedules (same forbidden-latency matrix) and is
	// drastically smaller — the full original description blows past a
	// million states, which is the size problem the paper's Section 2
	// discusses. Proebsting & Fraser report 6175 states for their
	// (simpler) MIPS model; ours lands within an order of magnitude.
	e := machines.MIPS().Expand()
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	a, err := BuildForward(red.ReducedClass, DefaultLimit())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() < 1000 || a.NumStates() > 1<<20 {
		t.Errorf("MIPS reduced automaton states = %d, want ~6e4", a.NumStates())
	}
	t.Logf("MIPS forward automaton (reduced description): %d states", a.NumStates())
	// The original description's automaton exceeds any practical limit.
	if _, err := BuildForward(e, Limit{MaxStates: 1 << 17}); err == nil {
		t.Errorf("original-description automaton unexpectedly fit in 131072 states")
	}
}

func TestSpanTooLarge(t *testing.T) {
	b := resmodel.NewBuilder("wide")
	b.Resources("r")
	b.Op("x", 1).Use("r", 0).Use("r", 70)
	if _, err := BuildForward(b.Build().Expand(), DefaultLimit()); err == nil {
		t.Fatalf("span 71 accepted")
	}
}

func TestStateLimit(t *testing.T) {
	e := machines.MIPS().Expand()
	_, err := BuildForward(e, Limit{MaxStates: 4})
	if _, ok := err.(*ErrTooLarge); !ok {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}
