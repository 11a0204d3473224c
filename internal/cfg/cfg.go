// Package cfg provides acyclic control-flow graphs of basic blocks and a
// cross-block scheduler that carries resource requirements over block
// boundaries — the latency-hiding setting Section 1 of Eichenberger &
// Davidson (PLDI 1996) motivates: "resource requirements may dangle from
// predecessor basic blocks", and the successor's reserved table begins as
// "the union of all the resource requirements dangling from predecessor
// basic blocks".
//
// Each block's body is an acyclic dependence graph; data may also flow
// between blocks (XEdges), constraining when a consumer may issue relative
// to its block entry. Blocks are scheduled independently — each on a fresh
// reserved table seeded with its predecessors' dangling requirements — so
// the result is valid along EVERY control-flow path, which Validate-style
// replay tests confirm by concatenating paths on the original description.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// Block is one basic block: an acyclic dependence graph plus control-flow
// successors.
type Block struct {
	Name  string
	Body  *ddg.Graph
	Succs []int
}

// XEdge is a cross-block data dependence: node FromNode of block FromBlock
// produces a value consumed by node ToNode of block ToBlock after Delay
// cycles.
type XEdge struct {
	FromBlock, FromNode int
	ToBlock, ToNode     int
	Delay               int
}

// Graph is an acyclic CFG (a trace, hammock or any forward region).
type Graph struct {
	Name   string
	Blocks []Block
	Entry  int
	XEdges []XEdge
}

// Validate checks structure: indices in range, acyclic control flow,
// acyclic block bodies with distance-0 edges only, and cross edges that
// follow control-flow reachability.
func (g *Graph) Validate() error {
	n := len(g.Blocks)
	if g.Entry < 0 || g.Entry >= n {
		return fmt.Errorf("cfg: %s: entry %d out of range", g.Name, g.Entry)
	}
	for bi, b := range g.Blocks {
		if b.Body == nil {
			return fmt.Errorf("cfg: %s: block %d has no body", g.Name, bi)
		}
		for _, e := range b.Body.Edges {
			if e.Dist != 0 {
				return fmt.Errorf("cfg: %s: block %q has a loop-carried edge", g.Name, b.Name)
			}
		}
		if err := b.Body.Validate(); err != nil {
			return err
		}
		for _, s := range b.Succs {
			if s < 0 || s >= n {
				return fmt.Errorf("cfg: %s: block %q successor %d out of range", g.Name, b.Name, s)
			}
		}
	}
	// Control-flow acyclicity.
	state := make([]int, n)
	var dfs func(v int) error
	dfs = func(v int) error {
		state[v] = 1
		for _, w := range g.Blocks[v].Succs {
			if state[w] == 1 {
				return fmt.Errorf("cfg: %s: control-flow cycle through block %q", g.Name, g.Blocks[w].Name)
			}
			if state[w] == 0 {
				if err := dfs(w); err != nil {
					return err
				}
			}
		}
		state[v] = 2
		return nil
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			if err := dfs(v); err != nil {
				return err
			}
		}
	}
	for _, x := range g.XEdges {
		if x.FromBlock < 0 || x.FromBlock >= n || x.ToBlock < 0 || x.ToBlock >= n {
			return fmt.Errorf("cfg: %s: cross edge block out of range", g.Name)
		}
		if x.FromNode < 0 || x.FromNode >= len(g.Blocks[x.FromBlock].Body.Nodes) ||
			x.ToNode < 0 || x.ToNode >= len(g.Blocks[x.ToBlock].Body.Nodes) {
			return fmt.Errorf("cfg: %s: cross edge node out of range", g.Name)
		}
		if x.FromBlock == x.ToBlock {
			return fmt.Errorf("cfg: %s: cross edge within one block; use a body edge", g.Name)
		}
	}
	return nil
}

// topo returns the blocks in a control-flow topological order.
func (g *Graph) topo() []int {
	n := len(g.Blocks)
	indeg := make([]int, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			indeg[s]++
		}
	}
	var order, ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.Blocks[v].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// Schedule is a per-block schedule of the whole region.
type Schedule struct {
	// Time and Alt are per block, per node (block-relative cycles).
	Time [][]int
	Alt  [][]int
	// Len is each block's issue length (one past its last issue cycle).
	Len []int
	// Dangling is, per block, what it leaves for its successors.
	Dangling [][]query.Dangling
}

// ScheduleRegion schedules every block of the region over the given
// (original or reduced) description. Each block runs cycle-ordered list
// scheduling on a fresh discrete reserved table seeded with the union of
// its predecessors' dangling requirements; cross-block data dependences
// delay consumers relative to their block entry by the producer's
// remaining latency, maximized over predecessors (the conservative merge
// at join points).
func ScheduleRegion(g *Graph, e *resmodel.Expanded) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Blocks)
	s := &Schedule{
		Time:     make([][]int, n),
		Alt:      make([][]int, n),
		Len:      make([]int, n),
		Dangling: make([][]query.Dangling, n),
	}
	span := func(op int) int { return e.Ops[op].Table.Span() }

	preds := make([][]int, n)
	for bi, b := range g.Blocks {
		for _, su := range b.Succs {
			preds[su] = append(preds[su], bi)
		}
	}
	// Global unique instance ids across blocks (ids must not collide when
	// a join block unions danglings from several predecessors).
	nextID := 1

	scheduled := make([]bool, n)
	for _, bi := range g.topo() {
		b := g.Blocks[bi]
		// Boundary conditions: union of predecessors' danglings.
		var seed []query.Dangling
		for _, p := range preds[bi] {
			if !scheduled[p] {
				return nil, fmt.Errorf("cfg: block %q scheduled before its predecessor %q",
					b.Name, g.Blocks[p].Name)
			}
			seed = append(seed, s.Dangling[p]...)
		}
		sort.Slice(seed, func(i, j int) bool { return seed[i].ID < seed[j].ID })
		mod := query.NewDiscrete(e, 0)
		if err := mod.SeedDanglingUnion(seed); err != nil {
			return nil, err
		}

		// Cross-block value readiness: node v of this block may not issue
		// before max over incoming cross edges of (producer issue +
		// delay - predecessor length), maximized over predecessors.
		ready := make([]int, len(b.Body.Nodes))
		for _, x := range g.XEdges {
			if x.ToBlock != bi {
				continue
			}
			if !scheduled[x.FromBlock] {
				return nil, fmt.Errorf("cfg: cross edge from unscheduled block %q", g.Blocks[x.FromBlock].Name)
			}
			rem := s.Time[x.FromBlock][x.FromNode] + x.Delay - s.Len[x.FromBlock]
			if rem > ready[x.ToNode] {
				ready[x.ToNode] = rem
			}
		}

		times, alts, blockLen, err := listScheduleSeeded(b.Body, e, mod, ready, nextID)
		if err != nil {
			return nil, fmt.Errorf("cfg: block %q: %w", b.Name, err)
		}
		nextID += len(b.Body.Nodes)
		s.Time[bi], s.Alt[bi], s.Len[bi] = times, alts, blockLen
		// Extract what dangles past this block's exit: both this block's
		// own long operations and still-dangling inherited ones.
		s.Dangling[bi] = query.DanglingFrom(mod.Instances(), span, blockLen)
		scheduled[bi] = true
	}
	return s, nil
}

// listScheduleSeeded is cycle-ordered list scheduling on a pre-seeded
// module, honoring per-node readiness offsets; instance ids start at id0.
func listScheduleSeeded(g *ddg.Graph, e *resmodel.Expanded, mod query.Module, ready []int, id0 int) (times, alts []int, blockLen int, err error) {
	n := len(g.Nodes)
	times = make([]int, n)
	alts = make([]int, n)
	for i := range times {
		times[i] = -1
	}
	preds := g.Preds()
	placed := 0
	for cycle := 0; placed < n; cycle++ {
		if cycle > 100000 {
			return nil, nil, 0, fmt.Errorf("no progress by cycle %d", cycle)
		}
		for v := 0; v < n; v++ {
			if times[v] >= 0 {
				continue
			}
			est := ready[v]
			ok := true
			for _, edge := range preds[v] {
				if times[edge.From] < 0 {
					ok = false
					break
				}
				if t := times[edge.From] + edge.Delay; t > est {
					est = t
				}
			}
			if !ok || est > cycle {
				continue
			}
			if op, free := mod.CheckWithAlt(g.Nodes[v].Op, cycle); free {
				mod.Assign(op, cycle, id0+v)
				times[v] = cycle
				alts[v] = op
				placed++
			}
		}
	}
	for v := 0; v < n; v++ {
		if times[v]+1 > blockLen {
			blockLen = times[v] + 1
		}
	}
	return times, alts, blockLen, nil
}

// Paths enumerates every entry-to-exit control path (up to limit paths).
func (g *Graph) Paths(limit int) [][]int {
	var out [][]int
	var walk func(path []int)
	walk = func(path []int) {
		if len(out) >= limit {
			return
		}
		v := path[len(path)-1]
		if len(g.Blocks[v].Succs) == 0 {
			out = append(out, append([]int(nil), path...))
			return
		}
		for _, s := range g.Blocks[v].Succs {
			walk(append(path, s))
		}
	}
	walk([]int{g.Entry})
	return out
}

// ReplayPath validates the region schedule along one control path: its
// blocks, concatenated into one linear schedule, must not contend under f
// (normally the ORIGINAL machine's forbidden-latency matrix), and every
// dependence along the path must hold.
func ReplayPath(g *Graph, f *forbidden.Matrix, s *Schedule, path []int) error {
	type placed struct{ block, node int }
	var at []placed
	var alts, cycles []int
	start := map[int]int{}
	abs := 0
	for _, bi := range path {
		start[bi] = abs
		for v := range g.Blocks[bi].Body.Nodes {
			at = append(at, placed{bi, v})
			alts = append(alts, s.Alt[bi][v])
			cycles = append(cycles, abs+s.Time[bi][v])
		}
		abs += s.Len[bi]
	}
	if i, j, _, found := f.Collision(alts, cycles, 0); found {
		a, b := at[i], at[j]
		return fmt.Errorf("cfg: path %v: contention between block %q node %d (abs cycle %d) and block %q node %d (abs cycle %d)",
			path, g.Blocks[a.block].Name, a.node, cycles[i], g.Blocks[b.block].Name, b.node, cycles[j])
	}
	for _, x := range g.XEdges {
		sf, okF := start[x.FromBlock]
		st, okT := start[x.ToBlock]
		if !okF || !okT {
			continue // not on this path
		}
		if st+s.Time[x.ToBlock][x.ToNode] < sf+s.Time[x.FromBlock][x.FromNode]+x.Delay {
			return fmt.Errorf("cfg: path %v: cross dependence %d.%d -> %d.%d violated",
				path, x.FromBlock, x.FromNode, x.ToBlock, x.ToNode)
		}
	}
	// Intra-block dependences at absolute cycles.
	for _, bi := range path {
		for _, edge := range g.Blocks[bi].Body.Edges {
			if s.Time[bi][edge.To] < s.Time[bi][edge.From]+edge.Delay {
				return fmt.Errorf("cfg: block %q dependence %d->%d violated",
					g.Blocks[bi].Name, edge.From, edge.To)
			}
		}
	}
	return nil
}
