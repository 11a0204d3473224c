package ddg

import "repro/internal/resmodel"

// MIIScratch computes ResMII and RecMII through reusable buffers; it is
// the one implementation of the minimum-II computation, and the Graph
// methods of the same names run it on a fresh scratch. A scheduler arena
// keeps one per worker to take MII off the per-loop allocation path: after
// a warmup call on the largest loop shape, further calls allocate nothing.
// The zero value is ready to use; a scratch must not be shared between
// goroutines.
type MIIScratch struct {
	// ResMII buffers (per-resource loads).
	load, us []int

	// RecMII buffers: adjacency CSR, iterative-Tarjan state, per-component
	// edge grouping and the Floyd–Warshall matrix.
	adjOff, adjDst, cursor []int32
	index, low, comp       []int32
	local                  []int32
	onStack                []bool
	stack                  []int32
	frameV, frameE         []int32
	compSize, compEdgeCnt  []int32
	compOff                []int32
	compEdges              []Edge
	hasEdge                []bool
	matrix                 []int64
}

func i32buf(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func intbuf(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// MII returns max(ResMII, RecMII).
func (s *MIIScratch) MII(g *Graph, uc UsageCounter) int {
	res, rec := s.ResMII(g, uc), s.RecMII(g)
	if res > rec {
		return res
	}
	return rec
}

// ResMII returns the resource-constrained minimum initiation interval: for
// every resource, the usages the loop body needs per iteration must fit in
// II cycles of that resource. Following Rau's bin-packing estimate,
// operations with alternatives are assigned greedily to the alternative
// that minimizes the maximum resource load (so three loads over two
// memory ports count 2+1, not 1.5 each); the first alternative with a
// strictly smaller maximum wins.
//
// The walk is sparse: an alternative's maximum is the larger of the
// running maximum load and the loads of the resources it touches, so only
// those are counted (in us, cleared again after each alternative) and
// only the chosen alternative's are added to load.
func (s *MIIScratch) ResMII(g *Graph, uc UsageCounter) int {
	nr := uc.NumResources()
	s.load = intbuf(s.load, nr)
	s.us = intbuf(s.us, nr)
	load, us := s.load, s.us
	for i := range load {
		load[i] = 0
		us[i] = 0
	}
	maxLoad := 0
	for _, node := range g.Nodes {
		na := uc.NumAlts(node.Op)
		var best []resmodel.Usage
		bestMax := int(^uint(0) >> 1)
		for a := 0; a < na; a++ {
			uses := uc.AltUses(node.Op, a)
			for _, u := range uses {
				us[u.Resource]++
			}
			m := maxLoad
			for _, u := range uses {
				if l := load[u.Resource] + us[u.Resource]; l > m {
					m = l
				}
			}
			for _, u := range uses {
				us[u.Resource] = 0
			}
			if m < bestMax {
				bestMax = m
				best = uses
			}
		}
		for _, u := range best {
			load[u.Resource]++
			if load[u.Resource] > maxLoad {
				maxLoad = load[u.Resource]
			}
		}
	}
	if maxLoad < 1 {
		return 1
	}
	return maxLoad
}

// RecMII returns the recurrence-constrained minimum initiation interval:
// the smallest II >= 1 such that no dependence cycle C has
// delay(C) > II * dist(C). Every cycle lies within one strongly connected
// component, so the graph is decomposed into SCCs first (an iterative
// Tarjan: explicit DFS stack, no recursion, no closures) and the binary
// search over II, with Floyd–Warshall positive-cycle detection at each
// probe, runs per component. Loop bodies are mostly acyclic chains with a
// few small recurrences, so the cubic work runs on components of a
// handful of nodes rather than the whole body. Intra-component edges are
// grouped by a stable counting sort, one grow-only matrix serves every
// component's search, and the running maximum is threaded through the
// components so one whose cycles all fit already costs one probe.
func (s *MIIScratch) RecMII(g *Graph) int {
	hasCycleEdge := false
	for _, e := range g.Edges {
		if e.Dist > 0 {
			hasCycleEdge = true
			break
		}
	}
	if !hasCycleEdge {
		return 1
	}
	n := len(g.Nodes)

	// Adjacency CSR by source node.
	s.adjOff = i32buf(s.adjOff, n+1)
	s.adjDst = i32buf(s.adjDst, len(g.Edges))
	s.cursor = i32buf(s.cursor, n+1)
	adjOff, adjDst, cursor := s.adjOff, s.adjDst, s.cursor
	for i := range adjOff {
		adjOff[i] = 0
	}
	for _, e := range g.Edges {
		adjOff[e.From+1]++
	}
	for i := 0; i < n; i++ {
		adjOff[i+1] += adjOff[i]
	}
	copy(cursor, adjOff)
	for _, e := range g.Edges {
		adjDst[cursor[e.From]] = int32(e.To)
		cursor[e.From]++
	}

	nComp := s.sccs(n, adjOff, adjDst)

	// Local renumbering within each component, in node order, and
	// intra-component edge counts.
	s.compSize = i32buf(s.compSize, nComp)
	s.compEdgeCnt = i32buf(s.compEdgeCnt, nComp)
	s.compOff = i32buf(s.compOff, nComp+1)
	s.local = i32buf(s.local, n)
	s.hasEdge = boolbuf(s.hasEdge, nComp)
	for c := 0; c < nComp; c++ {
		s.compSize[c] = 0
		s.compEdgeCnt[c] = 0
		s.hasEdge[c] = false
	}
	for v := 0; v < n; v++ {
		c := s.comp[v]
		s.local[v] = s.compSize[c]
		s.compSize[c]++
	}
	for _, e := range g.Edges {
		if c := s.comp[e.From]; c == s.comp[e.To] {
			s.compEdgeCnt[c]++
			s.hasEdge[c] = true
		}
	}
	s.compOff[0] = 0
	for c := 0; c < nComp; c++ {
		s.compOff[c+1] = s.compOff[c] + s.compEdgeCnt[c]
	}
	total := int(s.compOff[nComp])
	if cap(s.compEdges) < total {
		s.compEdges = make([]Edge, total)
	}
	s.compEdges = s.compEdges[:total]
	copy(s.cursor[:nComp], s.compOff[:nComp])
	for _, e := range g.Edges {
		c := s.comp[e.From]
		if c != s.comp[e.To] {
			continue
		}
		s.compEdges[s.cursor[c]] = Edge{
			From: int(s.local[e.From]), To: int(s.local[e.To]), Delay: e.Delay, Dist: e.Dist,
		}
		s.cursor[c]++
	}

	mii := 1
	for c := 0; c < nComp; c++ {
		cn := int(s.compSize[c])
		if cn < 2 && !s.hasEdge[c] {
			continue
		}
		edges := s.compEdges[s.compOff[c]:s.compOff[c+1]]
		hi := 1
		for _, e := range edges {
			if e.Delay > 0 {
				hi += e.Delay
			}
		}
		if hi <= mii {
			continue // every cycle here fits in the running maximum already
		}
		if cap(s.matrix) < cn*cn {
			s.matrix = make([]int64, cn*cn)
		}
		if feasibleII(cn, edges, mii, s.matrix[:cn*cn]) {
			continue
		}
		lo := mii + 1
		for lo < hi {
			mid := (lo + hi) / 2
			if feasibleII(cn, edges, mid, s.matrix[:cn*cn]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		mii = lo
	}
	return mii
}

func boolbuf(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// sccs runs Tarjan's algorithm with an explicit DFS stack, filling
// s.comp[v] with component ids, and returns the component count.
// Component ids are assigned in completion order of Tarjan roots.
func (s *MIIScratch) sccs(n int, adjOff, adjDst []int32) int {
	s.index = i32buf(s.index, n)
	s.low = i32buf(s.low, n)
	s.comp = i32buf(s.comp, n)
	s.onStack = boolbuf(s.onStack, n)
	idx, low, comp := s.index, s.low, s.comp
	for i := 0; i < n; i++ {
		idx[i], comp[i], s.onStack[i] = -1, -1, false
	}
	stack := s.stack[:0]
	fv := s.frameV[:0]
	fe := s.frameE[:0]
	var next, nComp int32
	for root := 0; root < n; root++ {
		if idx[root] >= 0 {
			continue
		}
		idx[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		s.onStack[root] = true
		fv = append(fv, int32(root))
		fe = append(fe, adjOff[root])
		for len(fv) > 0 {
			v := fv[len(fv)-1]
			e := fe[len(fe)-1]
			if e < adjOff[v+1] {
				fe[len(fe)-1] = e + 1
				w := adjDst[e]
				if idx[w] < 0 {
					idx[w], low[w] = next, next
					next++
					stack = append(stack, w)
					s.onStack[w] = true
					fv = append(fv, w)
					fe = append(fe, adjOff[w])
				} else if s.onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			fv = fv[:len(fv)-1]
			fe = fe[:len(fe)-1]
			if len(fv) > 0 {
				if p := fv[len(fv)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					s.onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	s.stack, s.frameV, s.frameE = stack[:0], fv[:0], fe[:0]
	return int(nComp)
}
