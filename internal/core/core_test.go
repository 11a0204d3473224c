package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/forbidden"
	"repro/internal/resmodel"
)

// figure1 builds the example machine of Figure 1 of the paper.
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

// TestFigure1 reproduces the end-to-end reduction of Figure 1: the example
// machine reduces from 5 resources to 2, operation A from 3 usages to 1,
// and operation B from 8 usages to 4 (one on each resource plus the three
// usages needed to generate F[B][B] = {1,2,3}).
func TestFigure1(t *testing.T) {
	e := figure1()
	res := Reduce(e, Objective{Kind: ResUses})
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := res.NumResources(); got != 2 {
		t.Fatalf("reduced resources = %d, want 2", got)
	}
	a := res.Classes.OfOp[e.OpIndex("A")]
	bb := res.Classes.OfOp[e.OpIndex("B")]
	if got := len(res.ClassTables[a].Uses); got != 1 {
		t.Errorf("A reduced usages = %d, want 1 (was 3)", got)
	}
	if got := len(res.ClassTables[bb].Uses); got != 4 {
		t.Errorf("B reduced usages = %d, want 4 (was 8)", got)
	}
	if res.NumUsages() != 5 {
		t.Errorf("total reduced usages = %d, want 5", res.NumUsages())
	}
}

// TestFigure1MaximalResources checks Step 2 + pruning: the example machine
// has exactly two maximal resources, {B@0, A@1} and {B@0, B@1, B@2, B@3}
// (Figure 1c).
func TestFigure1MaximalResources(t *testing.T) {
	e := figure1()
	m := forbidden.Compute(e)
	cls := m.ComputeClasses()
	cm := m.Collapse(cls)
	gen := GeneratingSet(cm, nil)
	pruned := Prune(cm, gen)
	if len(pruned) != 2 {
		names := make([]string, len(pruned))
		for i, r := range pruned {
			names[i] = r.StringWith(func(c int) string { return e.Ops[cls.Rep[c]].Name })
		}
		t.Fatalf("pruned generating set = %v, want the 2 maximal resources", names)
	}
	render := map[string]bool{}
	for _, r := range pruned {
		render[r.StringWith(func(c int) string { return e.Ops[cls.Rep[c]].Name })] = true
	}
	for _, want := range []string{"{B@0, A@1}", "{B@0, B@1, B@2, B@3}"} {
		if !render[want] {
			t.Errorf("maximal resource %s missing; got %v", want, render)
		}
	}
}

// TestFigure3Trace replays the step-by-step construction of Figure 3: the
// four non-negative forbidden latencies are processed in order 1 in F[B][A],
// 1 in F[B][B], 2 in F[B][B], 3 in F[B][B], applying Rule 3, Rule 3,
// Rule 1, Rule 1 respectively (with the bare-pair Rule 2 candidates against
// the mixed resource discarded).
func TestFigure3Trace(t *testing.T) {
	e := figure1()
	res, tr, str := tracedReduce(e)
	steps := func(ss []TraceStep) []string {
		out := make([]string, len(ss))
		for i, st := range ss {
			out[i] = fmt.Sprintf("%d: %s -> %s", st.Rule, str(st.Before), str(st.After))
		}
		return out
	}
	if len(tr.Pairs) != 4 {
		t.Fatalf("trace pairs = %d, want 4", len(tr.Pairs))
	}
	// Pair order: (B,A,1), (B,B,1), (B,B,2), (B,B,3), using class indices.
	bb := res.Classes.OfOp[e.OpIndex("B")]
	aa := res.Classes.OfOp[e.OpIndex("A")]
	wantPairs := []ElemPair{{bb, aa, 1}, {bb, bb, 1}, {bb, bb, 2}, {bb, bb, 3}}
	for i, w := range wantPairs {
		if tr.Pairs[i].Pair != w {
			t.Errorf("pair %d = %+v, want %+v", i, tr.Pairs[i].Pair, w)
		}
	}
	// Step a: Rule 3 creates {B@0, A@1}.
	if got := tr.Pairs[0].Steps; len(got) != 1 || got[0].Rule != Rule3 || str(got[0].After) != "{B@0, A@1}" {
		t.Errorf("step a = %v, want Rule 3 creating {B@0, A@1}", steps(got))
	}
	// Step b: bare-pair discard against {B@0, A@1}, then Rule 3 creates {B@0, B@1}.
	sb := tr.Pairs[1].Steps
	if len(sb) != 2 || sb[0].Rule != Rule2Discard || sb[1].Rule != Rule3 || str(sb[1].After) != "{B@0, B@1}" {
		t.Errorf("step b = %v, want discard then Rule 3 {B@0, B@1}", steps(sb))
	}
	// Step c: discard against resource 0, Rule 1 extends resource 1.
	sc := tr.Pairs[2].Steps
	if len(sc) != 2 || sc[0].Rule != Rule2Discard || sc[1].Rule != Rule1 || str(sc[1].After) != "{B@0, B@1, B@2}" {
		t.Errorf("step c = %v, want discard then Rule 1 -> {B@0, B@1, B@2}", steps(sc))
	}
	// Step d: discard, then Rule 1 -> {B@0, B@1, B@2, B@3}.
	sd := tr.Pairs[3].Steps
	if len(sd) != 2 || sd[1].Rule != Rule1 || str(sd[1].After) != "{B@0, B@1, B@2, B@3}" {
		t.Errorf("step d = %v, want Rule 1 -> {B@0, B@1, B@2, B@3}", steps(sd))
	}
	// Final generating set: exactly the two maximal resources.
	if got := tr.Pairs[3].Set; len(got) != 2 {
		t.Errorf("final generating set has %d resources, want 2", len(got))
	}
}

// tracedReduce reduces e and reruns Algorithm 1 on the reduction's class
// matrix with a trace, as Figure 3 does. str renders a traced resource
// with the class representatives' operation names, and nil as "".
func tracedReduce(e *resmodel.Expanded) (*Result, *Trace, func(*Resource) string) {
	res := Reduce(e, Objective{Kind: ResUses})
	tr := &Trace{}
	GeneratingSet(res.ClassMatrix, tr)
	str := func(r *Resource) string {
		if r == nil {
			return ""
		}
		return r.StringWith(func(c int) string { return e.Ops[res.Classes.Rep[c]].Name })
	}
	return res, tr, str
}

// TestRule4 covers operations whose only forbidden latency is the trivial
// self-contention: they get a dedicated single-usage resource.
func TestRule4(t *testing.T) {
	b := resmodel.NewBuilder("m")
	b.Resources("ra", "rb", "rc")
	b.Op("lonely", 1).Use("ra", 0)
	b.Op("x", 1).Use("rb", 0)
	b.Op("y", 1).Use("rb", 1)
	b.Op("idle", 1) // no resources at all: needs no synthesized resource
	e := b.Build().Expand()
	res := Reduce(e, Objective{Kind: ResUses})
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	lt := res.ClassTables[res.Classes.OfOp[e.OpIndex("lonely")]]
	if len(lt.Uses) != 1 {
		t.Errorf("lonely reduced usages = %d, want 1", len(lt.Uses))
	}
	it := res.ClassTables[res.Classes.OfOp[e.OpIndex("idle")]]
	if len(it.Uses) != 0 {
		t.Errorf("idle reduced usages = %d, want 0", len(it.Uses))
	}
}

// TestReduceNeverIncreases checks the reduction is never worse than the
// original description on the paper's metrics for the example machine and
// both objectives.
func TestReduceNeverIncreasesFigure1(t *testing.T) {
	e := figure1()
	for _, obj := range []Objective{{Kind: ResUses}, {Kind: KCycleWord, K: 1}, {Kind: KCycleWord, K: 4}} {
		res := Reduce(e, obj)
		if err := res.Verify(); err != nil {
			t.Fatalf("%v: Verify: %v", obj, err)
		}
		if res.NumResources() > len(e.Resources) {
			t.Errorf("%v: resources %d > original %d", obj, res.NumResources(), len(e.Resources))
		}
		if res.NumUsages() > e.NumUsages() {
			t.Errorf("%v: usages %d > original %d", obj, res.NumUsages(), e.NumUsages())
		}
	}
}

func TestObjectiveValidateAndString(t *testing.T) {
	if err := (Objective{Kind: KCycleWord, K: 0}).Validate(); err == nil {
		t.Errorf("K=0 validated")
	}
	if err := (Objective{Kind: ResUses}).Validate(); err != nil {
		t.Errorf("ResUses invalid: %v", err)
	}
	if err := (Objective{Kind: ObjectiveKind(99)}).Validate(); err == nil {
		t.Errorf("bogus kind validated")
	}
	if s := (Objective{Kind: KCycleWord, K: 4}).String(); !strings.Contains(s, "4-cycle-word") {
		t.Errorf("String = %q", s)
	}
	if s := (Objective{Kind: ResUses}).String(); s != "res-uses" {
		t.Errorf("String = %q", s)
	}
}

func TestRuleString(t *testing.T) {
	for _, r := range []Rule{Rule1, Rule2, Rule2Discard, Rule3, Rule4} {
		if r.String() == "" || strings.HasPrefix(r.String(), "Rule(") {
			t.Errorf("Rule %d has no description", int(r))
		}
	}
	if !strings.HasPrefix(Rule(42).String(), "Rule(") {
		t.Errorf("unknown rule String = %q", Rule(42).String())
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b []int64
		want bool
	}{
		{nil, nil, true},
		{nil, []int64{1}, true},
		{[]int64{1}, nil, false},
		{[]int64{1, 3}, []int64{1, 2, 3}, true},
		{[]int64{1, 4}, []int64{1, 2, 3}, false},
		{[]int64{2}, []int64{1, 3}, false},
	}
	for _, c := range cases {
		if got := subsetOf(c.a, c.b); got != c.want {
			t.Errorf("subsetOf(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// The central invariant of the paper: for random machines, the reduced
// description generates exactly the same forbidden-latency matrix as the
// original, under every objective.
func TestQuickReducePreservesConstraints(t *testing.T) {
	objs := []Objective{{Kind: ResUses}, {Kind: KCycleWord, K: 1}, {Kind: KCycleWord, K: 2}, {Kind: KCycleWord, K: 4}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		obj := objs[rng.Intn(len(objs))]
		res := Reduce(e, obj)
		return res.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the reduced description's size is within its guaranteed
// bounds: a positive resource count whenever any latency is forbidden, and
// at most 2 selected usages per covered forbidden triple (each greedy step
// covers at least one new triple at the cost of at most two usages; under
// KCycleWord, free-marked usages never open a new word). Note the
// reduction is NOT guaranteed to shrink tiny unstructured machines — with
// no redundancy to remove, the pair-granularity of the cover can cost a
// few extra usages (observed on ~4% of random machines); the paper's
// machines shrink because their pipelined patterns are highly redundant.
func TestQuickReduceShrinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		res := Reduce(e, Objective{Kind: ResUses})
		n := res.ClassMatrix.NonnegCount()
		if n > 0 && res.NumResources() == 0 {
			return false
		}
		return res.NumUsages() <= 2*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: every resource in the generating set is sound (forbids only
// latencies of the target machine), and after pruning no resource's triple
// set is contained in another's.
func TestQuickGeneratingSetSoundAndPruned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		m := forbidden.Compute(e)
		cls := m.ComputeClasses()
		cm := m.Collapse(cls)
		gen := GeneratingSet(cm, nil)
		for _, r := range gen {
			us := r.Uses()
			for _, a := range us {
				for _, b := range us {
					if !cm.Forbidden(a.Op, b.Op, b.Cycle-a.Cycle) {
						return false // resource forbids a latency the machine allows
					}
				}
			}
			// Canonical form: earliest usage in cycle 0.
			if len(us) > 0 && us[0].Cycle != 0 {
				return false
			}
		}
		pruned := Prune(cm, gen)
		for i := range pruned {
			ti := genTriples(cm, pruned[i])
			for j := range pruned {
				if i == j {
					continue
				}
				if subsetOf(ti, genTriples(cm, pruned[j])) {
					return false // dominated resource survived pruning
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the word-usage statistic is consistent: with k=1 the word usage
// equals the number of distinct non-empty cycles, and larger k never
// increases it.
func TestQuickWordUsesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, o := range e.Ops {
			cyc := map[int]bool{}
			for _, u := range o.Table.Uses {
				cyc[u.Cycle] = true
			}
			if WordUses(o.Table, 1, 0) != len(cyc) {
				return false
			}
			prev := AvgWordUsesPerOp([]resmodel.Table{o.Table}, 1)
			for k := 2; k <= 8; k *= 2 {
				cur := AvgWordUsesPerOp([]resmodel.Table{o.Table}, k)
				if cur > prev+1e-9 {
					return false
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWordUses(t *testing.T) {
	tab := resmodel.Table{Uses: []resmodel.Usage{
		{Resource: 0, Cycle: 0}, {Resource: 1, Cycle: 1}, {Resource: 0, Cycle: 5},
	}}
	if got := WordUses(tab, 4, 0); got != 2 { // cycles {0,1} in word 0, {5} in word 1
		t.Errorf("WordUses(k=4, a=0) = %d, want 2", got)
	}
	if got := WordUses(tab, 4, 3); got != 3 { // shifted cycles {3,4,8}: words 0,1,2
		t.Errorf("WordUses(k=4, a=3) = %d, want 3", got)
	}
	if got := AvgWordUsesPerOp([]resmodel.Table{tab}, 1); got != 3 {
		t.Errorf("AvgWordUsesPerOp(k=1) = %v, want 3", got)
	}
}

// TestKCycleWordObjectiveReducesWords: on Figure 1's machine, reducing for
// a k-cycle-word representation must not produce more word usages than the
// res-uses reduction evaluated at the same k.
func TestKCycleWordObjectiveReducesWords(t *testing.T) {
	e := figure1()
	for _, k := range []int{2, 4} {
		ru := Reduce(e, Objective{Kind: ResUses})
		kw := Reduce(e, Objective{Kind: KCycleWord, K: k})
		if err := kw.Verify(); err != nil {
			t.Fatalf("k=%d Verify: %v", k, err)
		}
		wRU := AvgWordUsesPerOp(ru.ClassTables, k)
		wKW := AvgWordUsesPerOp(kw.ClassTables, k)
		if wKW > wRU+1e-9 {
			t.Errorf("k=%d: word-objective word uses %.3f > res-uses %.3f", k, wKW, wRU)
		}
	}
}

func TestEmptyMachineReduce(t *testing.T) {
	b := resmodel.NewBuilder("empty")
	b.Resources("r")
	b.Op("nop", 0)
	e := b.Build().Expand()
	res := Reduce(e, Objective{Kind: ResUses})
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.NumResources() != 0 || res.NumUsages() != 0 {
		t.Errorf("empty machine reduced to %d resources / %d usages", res.NumResources(), res.NumUsages())
	}
}

// TestAlternativesReduce: alternatives expand into distinct expanded ops;
// the reduced machine must preserve alt groups and constraints.
func TestAlternativesReduce(t *testing.T) {
	b := resmodel.NewBuilder("alts")
	b.Resources("p0", "p1", "bus")
	b.Op("add", 1).Use("p0", 0).Use("bus", 2).Alt().Use("p1", 0).Use("bus", 2)
	b.Op("mul", 2).UseRange("p0", 0, 1)
	e := b.Build().Expand()
	res := Reduce(e, Objective{Kind: ResUses})
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(res.Reduced.AltGroup) != 2 || len(res.Reduced.AltGroup[0]) != 2 {
		t.Errorf("AltGroup not preserved: %v", res.Reduced.AltGroup)
	}
	if res.Reduced.Ops[0].Name != "add.0" || res.Reduced.Ops[1].Name != "add.1" {
		t.Errorf("op names not preserved: %v %v", res.Reduced.Ops[0].Name, res.Reduced.Ops[1].Name)
	}
}

// TestTraceRule2AndRule4Strings: trace records for the rules Figure 3's
// example machine does not exercise.
func TestTraceRule2AndRule4Strings(t *testing.T) {
	// Rule 2: a pair partially compatible with an existing resource that
	// has a third usage. Construct: ops X, Y, Z where X-Y and X-Z combine
	// but Y-Z are incompatible at the relevant offsets.
	b := resmodel.NewBuilder("m")
	b.Resources("r", "s", "q")
	b.Op("X", 1).Use("r", 0).Use("s", 0).Use("q", 0)
	b.Op("Y", 1).Use("r", 1)
	b.Op("Z", 1).Use("s", 2)
	b.Op("W", 1).Use("q", 9) // far usage: keeps W in its own pairs
	e := b.Build().Expand()
	res, tr, _ := tracedReduce(e)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	var rules []Rule
	for _, pt := range tr.Pairs {
		for _, st := range pt.Steps {
			rules = append(rules, st.Rule)
		}
	}
	has := func(r Rule) bool {
		for _, x := range rules {
			if x == r {
				return true
			}
		}
		return false
	}
	if !has(Rule3) {
		t.Errorf("trace never applied Rule 3: %v", rules)
	}
	// Rule 4: an op whose only forbidden latency is its 0-self-contention.
	b2 := resmodel.NewBuilder("m2")
	b2.Resources("own")
	b2.Op("solo", 1).Use("own", 0)
	e2 := b2.Build().Expand()
	res2, tr2, _ := tracedReduce(e2)
	found := false
	for _, pt := range tr2.Pairs {
		for _, st := range pt.Steps {
			if st.Rule == Rule4 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("Rule 4 not traced for a self-only op")
	}
	if res2.NumResources() != 1 || res2.NumUsages() != 1 {
		t.Errorf("solo machine reduced to %d res / %d uses", res2.NumResources(), res2.NumUsages())
	}
}

// TestKCycleWordFreeMarking: once the word objective opens a word of an
// operation's reduced table, every other usage of a selected resource in
// that word is marked for free (Section 5's secondary objective), so the
// word count never exceeds what the cover alone would open, while usage
// counts may grow.
func TestKCycleWordFreeMarking(t *testing.T) {
	// B's maximal resource {B@0..B@3} fits one 4-cycle word: the word
	// objective should select ALL FOUR usages (free-marked), where
	// res-uses selects only three.
	e := figure1()
	ru := Reduce(e, Objective{Kind: ResUses})
	kw := Reduce(e, Objective{Kind: KCycleWord, K: 4})
	if err := kw.Verify(); err != nil {
		t.Fatal(err)
	}
	bb := kw.Classes.OfOp[e.OpIndex("B")]
	ruB := len(ru.ClassTables[bb].Uses)
	kwB := len(kw.ClassTables[bb].Uses)
	if ruB != 4 {
		t.Errorf("res-uses B usages = %d, want 4", ruB)
	}
	if kwB < ruB {
		t.Errorf("word objective selected fewer usages (%d) than res-uses (%d)", kwB, ruB)
	}
	// And the word metric must not be worse.
	if AvgWordUsesPerOp(kw.ClassTables, 4) > AvgWordUsesPerOp(ru.ClassTables, 4)+1e-9 {
		t.Errorf("word objective produced more words than res-uses at k=4")
	}
}
