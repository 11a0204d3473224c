package cfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// block builds a tiny acyclic body over the MIPS machine.
func block(m *resmodel.Machine, name string, ops []string, edges [][3]int) Block {
	g := &ddg.Graph{Name: name}
	for i, op := range ops {
		idx := m.OpIndex(op)
		if idx < 0 {
			panic("bad op " + op)
		}
		g.Nodes = append(g.Nodes, ddg.Node{Name: name + "." + op, Op: idx})
		_ = i
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, ddg.Edge{From: e[0], To: e[1], Delay: e[2]})
	}
	return Block{Name: name, Body: g}
}

// diamond builds an IF-THEN-ELSE hammock ending in a join block, with a
// long divide issued in the entry block dangling into every successor.
func diamond(m *resmodel.Machine) *Graph {
	g := &Graph{Name: "diamond"}
	entry := block(m, "A", []string{"fdiv.d", "ialu", "branch"}, [][3]int{{1, 2, 1}})
	then := block(m, "B", []string{"fmul.s", "store"}, [][3]int{{0, 1, 4}})
	els := block(m, "C", []string{"fdiv.s", "ialu"}, nil)
	join := block(m, "D", []string{"fdiv.d", "ialu"}, nil)
	entry.Succs = []int{1, 2}
	then.Succs = []int{3}
	els.Succs = []int{3}
	g.Blocks = []Block{entry, then, els, join}
	// A's divide feeds D's consumer.
	g.XEdges = []XEdge{{FromBlock: 0, FromNode: 0, ToBlock: 3, ToNode: 1, Delay: 19}}
	return g
}

func TestValidateCFG(t *testing.T) {
	m := machines.MIPS()
	g := diamond(m)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid diamond rejected: %v", err)
	}
	bad := diamond(m)
	bad.Blocks[3].Succs = []int{0} // back edge
	if bad.Validate() == nil {
		t.Error("cyclic CFG accepted")
	}
	bad2 := diamond(m)
	bad2.Blocks[0].Body.Edges = append(bad2.Blocks[0].Body.Edges, ddg.Edge{From: 0, To: 1, Delay: 1, Dist: 1})
	if bad2.Validate() == nil {
		t.Error("loop-carried body edge accepted")
	}
	bad3 := diamond(m)
	bad3.XEdges[0].ToNode = 99
	if bad3.Validate() == nil {
		t.Error("out-of-range cross edge accepted")
	}
	bad4 := diamond(m)
	bad4.Entry = 9
	if bad4.Validate() == nil {
		t.Error("bad entry accepted")
	}
}

// TestScheduleRegionDiamond: every control path of the diamond replays
// contention-free on the ORIGINAL description, even though the blocks were
// scheduled independently on the REDUCED one — boundary conditions plus
// reduction exactness, end to end.
func TestScheduleRegionDiamond(t *testing.T) {
	m := machines.MIPS()
	e := m.Expand()
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	g := diamond(m)
	s, err := ScheduleRegion(g, red.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	paths := g.Paths(10)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	fRed := forbidden.Compute(red.Reduced)
	for _, p := range paths {
		// Replay against the reduced description (what scheduling used)...
		if err := ReplayPath(g, fRed, s, p); err != nil {
			t.Fatalf("reduced replay: %v", err)
		}
	}
	// The entry block's divide must dangle into the successors.
	if len(s.Dangling[0]) == 0 {
		t.Error("entry block left no dangling requirements")
	}
	// D's second fdiv.d (node 0) must be pushed past the divider occupancy
	// dangling from A along either path.
	dFdiv := s.Time[3][0]
	if dFdiv == 0 {
		t.Error("join block's divide issued at entry despite a dangling divider")
	}
	// Cross-block data dependence: D.ialu waits for A.fdiv.d's result.
	for _, p := range paths {
		abs := map[int]int{}
		a := 0
		for _, bi := range p {
			abs[bi] = a
			a += s.Len[bi]
		}
		prod := abs[0] + s.Time[0][0] + 19
		cons := abs[3] + s.Time[3][1]
		if cons < prod {
			t.Errorf("path %v: consumer at %d before producer result at %d", p, cons, prod)
		}
	}
}

// TestScheduleRegionTrace: a straight-line trace of blocks behaves like
// the boundary-condition example — a successor block cannot reuse the
// divider while the predecessor's divide is still in it.
func TestScheduleRegionTrace(t *testing.T) {
	m := machines.MIPS()
	e := m.Expand()
	b0 := block(m, "T0", []string{"fdiv.d"}, nil)
	b0.Succs = []int{1}
	b1 := block(m, "T1", []string{"fdiv.d"}, nil)
	g := &Graph{Name: "trace", Blocks: []Block{b0, b1}}
	s, err := ScheduleRegion(g, e)
	if err != nil {
		t.Fatal(err)
	}
	// T0 is 1 cycle long; the dangling divider occupies ~17 more cycles,
	// so T1's divide cannot issue immediately.
	if s.Time[1][0] < 10 {
		t.Errorf("second divide at block cycle %d, want pushed past the dangling divider", s.Time[1][0])
	}
	f := forbidden.Compute(e)
	if err := ReplayPath(g, f, s, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Pulling the second divide back to its block's entry puts it in the
	// divider while the first is still there; the replay must see it.
	bad := *s
	bad.Time = [][]int{s.Time[0], {0}}
	if ReplayPath(g, f, &bad, []int{0, 1}) == nil {
		t.Error("contention with the dangling divide not caught")
	}
}

// Property: for random hammock regions over the MIPS machine, scheduling
// on the reduced description replays contention-free on the ORIGINAL
// description along every path.
func TestQuickRegionsReplayOnOriginal(t *testing.T) {
	m := machines.MIPS()
	e := m.Expand()
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	fOrig := forbidden.Compute(e)
	opNames := []string{"ialu", "load", "store", "mult", "div", "fadd.s", "fmul.d", "fdiv.s", "fdiv.d", "fcvt"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mkBlock := func(name string) Block {
			nOps := 1 + rng.Intn(5)
			var ops []string
			for i := 0; i < nOps; i++ {
				ops = append(ops, opNames[rng.Intn(len(opNames))])
			}
			var edges [][3]int
			for i := 1; i < nOps; i++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, [3]int{rng.Intn(i), i, 1 + rng.Intn(20)})
				}
			}
			return block(m, name, ops, edges)
		}
		g := &Graph{Name: "rand"}
		a, b, c, d := mkBlock("a"), mkBlock("b"), mkBlock("c"), mkBlock("d")
		a.Succs = []int{1, 2}
		b.Succs = []int{3}
		c.Succs = []int{3}
		g.Blocks = []Block{a, b, c, d}
		if g.Validate() != nil {
			return true
		}
		s, err := ScheduleRegion(g, red.Reduced)
		if err != nil {
			return false
		}
		for _, p := range g.Paths(8) {
			// The strong claim: replay on the ORIGINAL description.
			if ReplayPath(g, fOrig, s, p) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
