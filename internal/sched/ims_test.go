package sched

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// discreteFactory builds Modulo Reservation Table modules over e.
func discreteFactory(e *resmodel.Expanded) ModuleFactory {
	return func(ii int) query.Module { return query.NewDiscrete(e, ii) }
}

func bitvecFactory(e *resmodel.Expanded, k int) ModuleFactory {
	return func(ii int) query.Module {
		m, err := query.NewBitvector(e, k, 64, ii)
		if err != nil {
			panic(err)
		}
		return m
	}
}

// dotProduct builds the canonical software-pipelining example on Cydra 5:
// s += a[i] * b[i].
func dotProduct(t *testing.T, m *resmodel.Machine) *ddg.Graph {
	t.Helper()
	src := `
loop dotprod
node addr aadd
node lda  ld.w
node ldb  ld.w
node mul  fmul.s
node acc  fadd.s
node test icmp
node br   brtop
edge addr addr delay 2 dist 1
edge addr lda delay 2
edge addr ldb delay 2
edge lda mul delay 22
edge ldb mul delay 22
edge mul acc delay 7
edge acc acc delay 6 dist 1
edge test br delay 1
`
	g, err := ddg.Parse(src, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScheduleDotProduct(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	g := dotProduct(t, m)
	r := Schedule(g, m, discreteFactory(e), DefaultConfig())
	if !r.OK {
		t.Fatalf("schedule failed: %+v", r)
	}
	if r.RecMII != 6 {
		t.Errorf("RecMII = %d, want 6 (fadd.s self-recurrence)", r.RecMII)
	}
	if r.II < r.MII {
		t.Fatalf("II %d < MII %d", r.II, r.MII)
	}
	if err := VerifySchedule(g, e, r); err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	// The two loads must land on different ports or different cycles; the
	// verifier above already guarantees it, but check the alt mechanism
	// engaged: lda and ldb are alternatives of the same op.
	if e.Ops[r.Alt[1]].Orig != e.Ops[r.Alt[2]].Orig {
		t.Errorf("loads placed as different source ops")
	}
}

// TestSameScheduleAcrossDescriptions reproduces the paper's Section 6
// verification: "precisely the same schedules were produced regardless of
// the machine description used by the compiler". The scheduler is
// deterministic, and original/reduced descriptions answer every query
// identically, so the resulting schedules must be identical.
func TestSameScheduleAcrossDescriptions(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	redRU := core.Reduce(e, core.Objective{Kind: core.ResUses})
	redKW := core.Reduce(e, core.Objective{Kind: core.KCycleWord, K: 4})
	if err := redRU.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := redKW.Verify(); err != nil {
		t.Fatal(err)
	}
	kRU := query.MaxCyclesPerWord(len(redRU.Reduced.Resources), 64)
	kKW := query.MaxCyclesPerWord(len(redKW.Reduced.Resources), 64)

	factories := map[string]ModuleFactory{
		"orig/discrete":    discreteFactory(e),
		"reduced/discrete": discreteFactory(redRU.Reduced),
		"reduced/bitvec":   bitvecFactory(redRU.Reduced, kRU),
		"word/bitvec":      bitvecFactory(redKW.Reduced, kKW),
	}

	cfg := loopgen.Default()
	cfg.Loops = 60
	loops, err := loopgen.Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range loops {
		var ref Result
		first := true
		for name, f := range factories {
			r := Schedule(g, m, f, DefaultConfig())
			if !r.OK {
				t.Fatalf("%s: %s failed to schedule", g.Name, name)
			}
			if err := VerifySchedule(g, e, r); err != nil {
				t.Fatalf("%s: %s produced invalid schedule: %v", g.Name, name, err)
			}
			if first {
				ref = r
				first = false
				continue
			}
			if r.II != ref.II || r.Decisions != ref.Decisions {
				t.Fatalf("%s: %s diverged: II %d vs %d, decisions %d vs %d",
					g.Name, name, r.II, ref.II, r.Decisions, ref.Decisions)
			}
			for v := range r.Time {
				if r.Time[v] != ref.Time[v] || r.Alt[v] != ref.Alt[v] {
					t.Fatalf("%s: %s placed node %d at %d (alt %d), ref %d (alt %d)",
						g.Name, name, v, r.Time[v], r.Alt[v], ref.Time[v], ref.Alt[v])
				}
			}
		}
	}
}

// TestBudgetForcesHigherII: an impossible budget forces the scheduler to
// give up on tight IIs but still eventually succeed.
func TestBudgetForcesHigherII(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	cfg := loopgen.Default()
	cfg.Loops = 25
	loops, err := loopgen.Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range loops {
		tight := Schedule(g, m, discreteFactory(e), Config{BudgetRatio: 6})
		loose := Schedule(g, m, discreteFactory(e), Config{BudgetRatio: 1})
		if !tight.OK || !loose.OK {
			t.Fatalf("%s: scheduling failed (tight %v loose %v)", g.Name, tight.OK, loose.OK)
		}
		if loose.II < tight.II {
			t.Errorf("%s: budget 1N found better II (%d) than 6N (%d)", g.Name, loose.II, tight.II)
		}
		if err := VerifySchedule(g, e, loose); err != nil {
			t.Errorf("%s: loose schedule invalid: %v", g.Name, err)
		}
	}
}

// TestScheduleAchievesMIIMostly mirrors Table 5's headline: the II/MII
// ratio is 1 for the overwhelming majority of loops.
func TestScheduleAchievesMIIMostly(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	cfg := loopgen.Default()
	cfg.Loops = 200
	loops, err := loopgen.Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	atMII := 0
	for _, g := range loops {
		r := Schedule(g, m, discreteFactory(e), DefaultConfig())
		if !r.OK {
			t.Fatalf("%s: failed", g.Name)
		}
		if r.II == r.MII {
			atMII++
		}
	}
	frac := float64(atMII) / float64(len(loops))
	if frac < 0.80 {
		t.Errorf("II == MII on only %.1f%% of loops, want >= 80%% (paper: 95.6%%)", 100*frac)
	}
}

// TestHeights: height priority is the longest II-adjusted path to a leaf.
func TestHeights(t *testing.T) {
	g := &ddg.Graph{Name: "h", Nodes: make([]ddg.Node, 4)}
	g.Edges = []ddg.Edge{
		{From: 0, To: 1, Delay: 3},
		{From: 1, To: 3, Delay: 2},
		{From: 2, To: 3, Delay: 9},
	}
	h := heights(g, 4)
	if h[3] != 0 || h[1] != 2 || h[0] != 5 || h[2] != 9 {
		t.Errorf("heights = %v, want [5 2 9 0]", h)
	}
	// Loop-carried edges are discounted by II. The added recurrence
	// 0->1->3->0 has delay 11 over distance 2, so RecMII = 6; at a
	// feasible II the cycle weight is non-positive and heights converge.
	g.Edges = append(g.Edges, ddg.Edge{From: 3, To: 0, Delay: 6, Dist: 2})
	h = heights(g, 6) // back edge weight 6-12 = -6
	if h[0] != 5 || h[3] != 0 {
		t.Errorf("heights at II=6 = %v, want h[0]=5 h[3]=0", h)
	}
	h = heights(g, 7) // larger II discounts the back edge further
	if h[3] != 0 || h[2] != 9 {
		t.Errorf("heights at II=7 = %v, want h[3]=0 h[2]=9", h)
	}
}

// TestVerifyScheduleCatchesViolations: the verifier rejects corrupted
// schedules.
func TestVerifyScheduleCatchesViolations(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	g := dotProduct(t, m)
	r := Schedule(g, m, discreteFactory(e), DefaultConfig())
	if !r.OK {
		t.Fatal("schedule failed")
	}
	// Dependence violation: move the multiply before its load completes.
	bad := r
	bad.Time = append([]int(nil), r.Time...)
	bad.Time[3] = bad.Time[1] // mul at load's cycle
	if err := VerifySchedule(g, e, bad); err == nil {
		t.Errorf("dependence violation not caught")
	}
	// Resource violation: force both loads onto the same port and cycle.
	bad2 := r
	bad2.Time = append([]int(nil), r.Time...)
	bad2.Alt = append([]int(nil), r.Alt...)
	bad2.Time[2] = bad2.Time[1]
	bad2.Alt[2] = bad2.Alt[1]
	if err := VerifySchedule(g, e, bad2); err == nil {
		t.Errorf("resource violation not caught")
	}
	// Wrong alternative: claim a node was placed as an unrelated op.
	bad3 := r
	bad3.Alt = append([]int(nil), r.Alt...)
	bad3.Alt[0] = e.OpIndex("fmul.s")
	if err := VerifySchedule(g, e, bad3); err == nil {
		t.Errorf("wrong alternative not caught")
	}
}

// Property: every random benchmark loop schedules successfully, verifies
// against the original description, and II >= MII.
func TestQuickScheduleRandomLoops(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	f := func(seed int64) bool {
		cfg := loopgen.Default()
		cfg.Seed = seed
		cfg.Loops = 3
		loops, err := loopgen.Generate(m, cfg)
		if err != nil {
			return false
		}
		for _, g := range loops {
			r := Schedule(g, m, discreteFactory(e), DefaultConfig())
			if !r.OK || r.II < r.MII {
				return false
			}
			if VerifySchedule(g, e, r) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLoopgenMarginals: the generated benchmark matches Table 5's
// published marginals.
func TestLoopgenMarginals(t *testing.T) {
	m := machines.Cydra5()
	loops, err := loopgen.Generate(m, loopgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	s := loopgen.Summarize(m, loops)
	if s.Loops != 1327 {
		t.Errorf("loops = %d, want 1327", s.Loops)
	}
	if s.MinOps < 2 || s.MinOps > 4 {
		t.Errorf("min ops = %d, want ~2", s.MinOps)
	}
	if s.AvgOps < 13 || s.AvgOps > 23 {
		t.Errorf("avg ops = %.2f, want ~17.5", s.AvgOps)
	}
	if s.MaxOps > 161 || s.MaxOps < 80 {
		t.Errorf("max ops = %d, want <= 161 and large", s.MaxOps)
	}
	if s.AltFraction < 0.12 || s.AltFraction > 0.45 {
		t.Errorf("alt fraction = %.2f, want ~0.21", s.AltFraction)
	}
	_ = rand.Int // keep math/rand import meaningful if tests change
}

// TestScheduleFailsAtCappedII: an impossible MaxII cap makes Schedule
// report failure instead of looping.
func TestScheduleFailsAtCappedII(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	g := dotProduct(t, m)
	r := Schedule(g, m, discreteFactory(e), Config{BudgetRatio: 6, MaxII: 2}) // MII is 6
	if r.OK {
		t.Fatal("schedule succeeded below MII")
	}
	if r.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (MaxII below MII)", r.Attempts)
	}
}

// TestAttemptDecisionsRecorded: per-attempt decision counts cover every
// attempt and sum to the total.
func TestAttemptDecisionsRecorded(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	cfg := loopgen.Default()
	cfg.Loops = 30
	loops, err := loopgen.Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range loops {
		r := Schedule(g, m, discreteFactory(e), DefaultConfig())
		if !r.OK {
			t.Fatal("failed")
		}
		if len(r.AttemptDecisions) != r.Attempts {
			t.Fatalf("%d attempt records for %d attempts", len(r.AttemptDecisions), r.Attempts)
		}
		sum := 0
		for _, d := range r.AttemptDecisions {
			sum += d
		}
		if sum != r.Decisions {
			t.Fatalf("attempt decisions sum %d != total %d", sum, r.Decisions)
		}
		if len(r.ChecksPerDecision) != r.Decisions {
			t.Fatalf("%d check records for %d decisions", len(r.ChecksPerDecision), r.Decisions)
		}
	}
}

// TestRangeScanMatchesNaiveScan pins the tentpole guarantee on the full
// 1327-loop corpus: the range scan and the naive per-cycle
// CheckWithAlt scan (naiveModule) produce byte-identical schedules — same
// II, same placements, same alternatives, same per-decision statistics
// — at workers 1 and 8, on both reserved-table representations.
func TestRangeScanMatchesNaiveScan(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	k := query.MaxCyclesPerWord(len(e.Resources), 64)
	if k < 1 {
		k = 1
	}
	loops, err := loopgen.Generate(m, loopgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		loops = loops[:150]
	}
	factories := map[string]ModuleFactory{
		"discrete": discreteFactory(e),
		"bitvec":   bitvecFactory(e, k),
	}
	for name, f := range factories {
		naive := ScheduleBatch(loops, m, naiveFactory(f), Config{BudgetRatio: 6}, 1)
		for _, workers := range []int{1, 8} {
			ranged := ScheduleBatch(loops, m, f, Config{BudgetRatio: 6}, workers)
			for i, r := range ranged {
				ref := naive[i]
				if r.OK != ref.OK || r.II != ref.II || r.Decisions != ref.Decisions ||
					r.Reversed != ref.Reversed || r.Attempts != ref.Attempts {
					t.Fatalf("%s workers=%d %s: range scan diverged: OK %v/%v II %d/%d decisions %d/%d",
						name, workers, loops[i].Name, r.OK, ref.OK, r.II, ref.II, r.Decisions, ref.Decisions)
				}
				for v := range r.Time {
					if r.Time[v] != ref.Time[v] || r.Alt[v] != ref.Alt[v] {
						t.Fatalf("%s workers=%d %s: node %d placed at %d (alt %d), naive %d (alt %d)",
							name, workers, loops[i].Name, v, r.Time[v], r.Alt[v], ref.Time[v], ref.Alt[v])
					}
				}
				if len(r.ChecksPerDecision) != len(ref.ChecksPerDecision) {
					t.Fatalf("%s workers=%d %s: %d checks-per-decision entries, naive %d",
						name, workers, loops[i].Name, len(r.ChecksPerDecision), len(ref.ChecksPerDecision))
				}
				for j := range r.ChecksPerDecision {
					if r.ChecksPerDecision[j] != ref.ChecksPerDecision[j] {
						t.Fatalf("%s workers=%d %s: decision %d issued %d checks, naive %d",
							name, workers, loops[i].Name, j, r.ChecksPerDecision[j], ref.ChecksPerDecision[j])
					}
				}
				if len(r.ScanWidths) != r.Decisions {
					t.Fatalf("%s workers=%d %s: %d scan widths for %d decisions",
						name, workers, loops[i].Name, len(r.ScanWidths), r.Decisions)
				}
			}
		}
	}
}

// imsCorpus holds benchmarkIMSCorpus's machine, reduction and loops,
// built once per process: go test calls a benchmark function again for
// every b.N it tries, and rebuilding them on each call put the reduction
// and the corpus generator in the profile.
var imsCorpus struct {
	once  sync.Once
	m     *resmodel.Machine
	red   *core.Result
	loops []*ddg.Graph
	err   error
}

// benchmarkIMSCorpus schedules a slice of the loop corpus on the
// reduced 3-cycle-word bitvector, so the range scan and the naive
// per-cycle oracle can be compared under -benchtime averaging and
// profiled with -cpuprofile. wrap builds the module factory.
func benchmarkIMSCorpus(b *testing.B, wrap func(ModuleFactory) ModuleFactory) {
	c := &imsCorpus
	c.once.Do(func() {
		c.m = machines.Cydra5()
		c.red = core.CachedReduce(c.m.Expand(), core.Objective{Kind: core.KCycleWord, K: 3})
		if c.err = c.red.Verify(); c.err != nil {
			return
		}
		c.loops, c.err = loopgen.Generate(c.m, loopgen.Default())
		if c.err == nil {
			c.loops = c.loops[:200]
		}
	})
	if c.err != nil {
		b.Fatal(c.err)
	}
	m, loops := c.m, c.loops
	factory := wrap(bitvecFactory(c.red.Reduced, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range ScheduleBatch(loops, m, factory, Config{BudgetRatio: 6}, 1) {
			if !r.OK {
				b.Fatal("corpus loop failed to schedule")
			}
		}
	}
}

func BenchmarkIMSCorpusRangeScan(b *testing.B) {
	benchmarkIMSCorpus(b, func(f ModuleFactory) ModuleFactory { return f })
}

func BenchmarkIMSCorpusNaiveScan(b *testing.B) {
	benchmarkIMSCorpus(b, naiveFactory)
}
