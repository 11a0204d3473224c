// Package ddg provides data-dependence graphs for innermost loops and the
// minimum-initiation-interval (MII) computation used by modulo scheduling:
// the scheduler substrate for Section 8 of Eichenberger & Davidson (PLDI
// 1996), which evaluates the contention query module inside Rau's
// Iterative Modulo Scheduler.
package ddg

import (
	"fmt"
	"math"

	"repro/internal/resmodel"
)

// Node is one operation of a loop body. Op indexes the operation in the
// *source* (unexpanded) machine description, so a node with alternatives
// can be placed by check-with-alt.
type Node struct {
	Name string
	Op   int
}

// Edge is a dependence: To must issue no earlier than Delay cycles after
// From, when From executes Dist iterations earlier:
//
//	time(To) >= time(From) + Delay - II*Dist
//
// Dist == 0 is an intra-iteration dependence; Dist >= 1 is loop-carried.
type Edge struct {
	From, To int
	Delay    int
	Dist     int
}

// Graph is a loop-body dependence graph. Unlike an acyclic DAG it may
// contain cycles, provided every cycle has positive total distance.
type Graph struct {
	Name  string
	Nodes []Node
	Edges []Edge
}

// Validate checks indices, non-negative distances, and that every
// zero-distance cycle is absent (each dependence cycle must cross at
// least one iteration boundary).
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("ddg: %s: edge %d->%d out of range [0,%d)", g.Name, e.From, e.To, len(g.Nodes))
		}
		if e.Dist < 0 {
			return fmt.Errorf("ddg: %s: edge %d->%d has negative distance %d", g.Name, e.From, e.To, e.Dist)
		}
	}
	// Detect a zero-distance cycle by DFS over Dist==0 edges.
	adj := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		if e.Dist == 0 {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	state := make([]int, len(g.Nodes)) // 0 new, 1 active, 2 done
	var dfs func(v int) bool
	dfs = func(v int) bool {
		state[v] = 1
		for _, w := range adj[v] {
			if state[w] == 1 {
				return false
			}
			if state[w] == 0 && !dfs(w) {
				return false
			}
		}
		state[v] = 2
		return true
	}
	for v := range g.Nodes {
		if state[v] == 0 && !dfs(v) {
			return fmt.Errorf("ddg: %s: zero-distance dependence cycle through node %d (%s)",
				g.Name, v, g.Nodes[v].Name)
		}
	}
	return nil
}

// Preds returns, for each node, the incoming edges.
func (g *Graph) Preds() [][]Edge {
	out := make([][]Edge, len(g.Nodes))
	for _, e := range g.Edges {
		out[e.To] = append(out[e.To], e)
	}
	return out
}

// Succs returns, for each node, the outgoing edges.
func (g *Graph) Succs() [][]Edge {
	out := make([][]Edge, len(g.Nodes))
	for _, e := range g.Edges {
		out[e.From] = append(out[e.From], e)
	}
	return out
}

// RecMII returns the recurrence-constrained minimum initiation interval:
// the smallest II >= 1 such that no dependence cycle C has
// delay(C) > II * dist(C). It runs MIIScratch.RecMII on a fresh scratch;
// callers that compute MII per loop keep one MIIScratch instead.
func (g *Graph) RecMII() int {
	var s MIIScratch
	return s.RecMII(g)
}

// feasibleII reports whether no dependence cycle of g has positive
// weight under edge weight (Delay - II*Dist); the whole-graph reference
// for the per-component search in MIIScratch.RecMII. dist is an n*n
// scratch matrix (row-major) that is fully overwritten.
func (g *Graph) feasibleII(ii int, dist []int64) bool {
	return feasibleII(len(g.Nodes), g.Edges, ii, dist)
}

func feasibleII(n int, edges []Edge, ii int, dist []int64) bool {
	LongestPaths(dist, n, edges, ii)
	for i := 0; i < n; i++ {
		if dist[i*n+i] > 0 {
			return false
		}
	}
	return true
}

// NoPath marks "no path" in a LongestPaths matrix; quarter-range so
// guarded additions cannot wrap.
const NoPath = math.MinInt64 / 4

// LongestPaths fills dist (row-major n*n, fully overwritten) with the
// all-pairs longest path over n nodes under edge weight Delay - II*Dist,
// parallel edges folded by max and NoPath where no path exists: a
// Floyd-Warshall over guarded additions.
func LongestPaths(dist []int64, n int, edges []Edge, ii int) {
	dist = dist[:n*n]
	for i := range dist {
		dist[i] = NoPath
	}
	for _, e := range edges {
		w := int64(e.Delay) - int64(ii)*int64(e.Dist)
		if w > dist[e.From*n+e.To] {
			dist[e.From*n+e.To] = w
		}
	}
	for k := 0; k < n; k++ {
		dk := dist[k*n : k*n+n]
		for i := 0; i < n; i++ {
			dik := dist[i*n+k]
			if dik == NoPath {
				continue
			}
			di := dist[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if dk[j] == NoPath {
					continue
				}
				if v := dik + dk[j]; v > di[j] {
					di[j] = v
				}
			}
		}
	}
}

// UsageCounter abstracts the machine information ResMII needs: the
// machine's resource and alternative counts and the usage list of
// alternative alt of (source) operation op, one entry per usage (a
// resource used twice appears twice).
type UsageCounter interface {
	NumResources() int
	NumAlts(op int) int
	AltUses(op, alt int) []resmodel.Usage
}

// ResMII returns the resource-constrained minimum initiation interval
// (see MIIScratch.ResMII) on a fresh scratch.
func (g *Graph) ResMII(uc UsageCounter) int {
	var s MIIScratch
	return s.ResMII(g, uc)
}

// MII returns max(ResMII, RecMII) on a fresh scratch.
func (g *Graph) MII(uc UsageCounter) int {
	var s MIIScratch
	return s.MII(g, uc)
}
