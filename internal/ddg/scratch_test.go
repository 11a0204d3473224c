package ddg

import (
	"math/rand"
	"testing"
)

// randomGraph builds a loop-shaped graph: a chain with random extra
// edges, self-recurrences and occasional back edges with distance.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{Name: "rand"}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, Node{Name: "v", Op: 0})
	}
	for i := 1; i < n; i++ {
		from := rng.Intn(i)
		g.Edges = append(g.Edges, Edge{From: from, To: i, Delay: 1 + rng.Intn(20)})
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		e := Edge{From: a, To: b, Delay: rng.Intn(24)}
		if b <= a {
			e.Dist = 1 + rng.Intn(2) // backward or self: must cross an iteration
		} else if rng.Intn(4) == 0 {
			e.Dist = 1
		}
		g.Edges = append(g.Edges, e)
	}
	return g
}

// TestMIIScratchMatchesGraph checks MIIScratch over many random graphs
// against two references. A scratch reused across graph shapes (the
// arena's usage pattern) must give the same ResMII/RecMII/MII as a fresh
// scratch, so no buffer state leaks between loops. And RecMII must equal
// the smallest II >= 1 at which the whole-graph feasibility test holds:
// that oracle runs Floyd–Warshall on the entire graph, with no SCC split.
func TestMIIScratchMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	uc := fixedUsage{}
	var reused MIIScratch
	var matrix []int64
	for i := 0; i < 300; i++ {
		g := randomGraph(rng, 2+rng.Intn(30))
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d invalid: %v", i, err)
		}
		var fresh MIIScratch
		rec := reused.RecMII(g)
		if want := fresh.RecMII(g); rec != want {
			t.Fatalf("graph %d: reused RecMII = %d, fresh = %d", i, rec, want)
		}
		if got, want := reused.ResMII(g, uc), fresh.ResMII(g, uc); got != want {
			t.Fatalf("graph %d: reused ResMII = %d, fresh = %d", i, got, want)
		}
		if got, want := reused.MII(g, uc), fresh.MII(g, uc); got != want {
			t.Fatalf("graph %d: reused MII = %d, fresh = %d", i, got, want)
		}

		n := len(g.Nodes)
		if cap(matrix) < n*n {
			matrix = make([]int64, n*n)
		}
		oracle := 1
		for !g.feasibleII(oracle, matrix) {
			oracle++
		}
		if rec != oracle {
			t.Fatalf("graph %d: RecMII = %d, smallest whole-graph feasible II = %d", i, rec, oracle)
		}
	}
}

// fixedUsage is a tiny UsageCounter: every op has two alternatives using
// one of two resources once.
type fixedUsage struct{}

func (fixedUsage) NumResources() int { return 2 }
func (fixedUsage) NumAlts(op int) int {
	return 2
}
func (fixedUsage) Uses(op, alt, resource int) int {
	if alt == resource {
		return 1
	}
	return 0
}

// TestMIIScratchZeroAllocSteadyState pins that a warmed scratch computes
// MII without allocating — the property the scheduler arena relies on.
func TestMIIScratchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := make([]*Graph, 16)
	for i := range graphs {
		graphs[i] = randomGraph(rng, 4+rng.Intn(24))
	}
	var s MIIScratch
	uc := fixedUsage{}
	for _, g := range graphs {
		s.MII(g, uc) // warm every buffer across the shape mix
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, g := range graphs {
			s.MII(g, uc)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed MIIScratch.MII allocated %.1f times per run, want 0", allocs)
	}
}
