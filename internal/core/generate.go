package core

import (
	"fmt"
	"math/bits"

	"repro/internal/forbidden"
)

// Rule identifies which rule of Algorithm 1 fired for a trace step.
type Rule int

const (
	// Rule1: the elementary pair is fully compatible with the resource, so
	// its usages are added to the resource.
	Rule1 Rule = 1
	// Rule2: the pair is partially compatible; a new resource is created
	// from the pair plus the compatible usages of the resource.
	Rule2 Rule = 2
	// Rule2Discard: the pair is incompatible with every usage of the
	// resource; the would-be new resource is the bare pair and is discarded.
	Rule2Discard Rule = -2
	// Rule3: no resource contains both usages of the pair, so the pair
	// itself becomes a new resource.
	Rule3 Rule = 3
	// Rule4: an operation whose only forbidden latency is the trivial
	// 0-self-contention gets a dedicated single-usage resource.
	Rule4 Rule = 4
)

func (r Rule) String() string {
	switch r {
	case Rule1:
		return "Rule 1 (fully compatible: add pair to resource)"
	case Rule2:
		return "Rule 2 (partially compatible: new resource)"
	case Rule2Discard:
		return "Rule 2 (incompatible: bare pair discarded)"
	case Rule3:
		return "Rule 3 (create resource from pair)"
	case Rule4:
		return "Rule 4 (single-usage resource)"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// TraceStep records one rule application while processing one elementary
// pair, for the Figure 3 rendering.
type TraceStep struct {
	Rule   Rule
	Before string // resource the rule was applied against ("" for Rules 3/4)
	After  string // resulting resource ("" when discarded)
}

// PairTrace records the processing of one elementary pair.
type PairTrace struct {
	Pair  ElemPair
	Steps []TraceStep
	// Set renders the full generating set after this pair was processed.
	Set []string
}

// Trace captures the step-by-step execution of the generating-set
// construction (Figure 3 of the paper). Pass nil to GeneratingSet to skip
// trace collection.
type Trace struct {
	OpName func(int) string
	Pairs  []PairTrace
}

// GeneratingSet executes Algorithm 1 of the paper: it builds a generating
// set of maximal resources for the forbidden-latency matrix m. The result
// forbids only latencies forbidden by m (soundness) and contains every
// maximal resource of the target machine, possibly alongside some
// submaximal ones (Theorem 1); Prune removes the latter.
//
// Resources under construction are usage bitmaps (see usageSet), kept as
// an antichain of live resources in creation order: the compatibility scan
// of a pair against a resource is a word-wise AND with the pair's
// compatibility row, and every subset test is a word-wise AND-NOT.
func GeneratingSet(m *forbidden.Matrix, tr *Trace) []*Resource {
	opName := func(i int) string { return fmt.Sprintf("op%d", i) }
	if tr != nil && tr.OpName != nil {
		opName = tr.OpName
	}
	g := newGenset(m)
	str := func(s *usageSet) string { return g.resource(s).StringWith(opName) }
	cand := &g.cand

	for _, p := range elementaryPairs(m) {
		x0, x1 := g.vertex(p.X, 0), g.vertex(p.Y, p.F)
		both := g.pairRow(p)
		containsBoth := false
		var pt *PairTrace
		if tr != nil {
			pt = &PairTrace{Pair: p}
		}

		snap := len(g.live) // resources created for this pair are not reprocessed with it
		for i := 0; i < snap; i++ {
			q := g.live[i]
			if q.dead {
				continue
			}
			// Compatibility scan: the usages of q compatible with both
			// pair usages; q is fully compatible when that is all of q.
			cand.intersect(q, both)
			if cand.n == q.n {
				// Rule 1: add the pair's usages to q in place, then restore
				// the antichain (q may have converged onto or absorbed
				// another resource).
				before := ""
				if pt != nil {
					before = str(q)
				}
				q.add(x0)
				q.add(x1)
				for j, other := range g.live {
					if j == i || other.dead {
						continue
					}
					if q.subsetOf(other) {
						q.dead = true
						break
					}
					if other.subsetOf(q) {
						other.dead = true
					}
				}
				containsBoth = true
				if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule1, before, str(q)})
				}
			} else {
				// Rule 2: consider a new resource = pair + compatible usages
				// of q. If that resource is simply the pair itself with no
				// other usages, it is discarded (Rule 3 decides later).
				cand.add(x0)
				cand.add(x1)
				if cand.n > 2 {
					added := g.register(cand)
					containsBoth = true // the candidate (or its live superset) contains both
					if pt != nil {
						after := ""
						if added {
							after = str(cand)
						}
						pt.Steps = append(pt.Steps, TraceStep{Rule2, str(q), after})
					}
				} else if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule2Discard, str(q), ""})
				}
			}
			cand.clear()
		}

		if !containsBoth {
			// Rule 3: the pair itself becomes a new resource.
			cand.add(x0)
			cand.add(x1)
			g.register(cand)
			if pt != nil {
				pt.Steps = append(pt.Steps, TraceStep{Rule3, "", str(cand)})
			}
			cand.clear()
		}
		g.compact()

		if pt != nil {
			for _, r := range g.live {
				pt.Set = append(pt.Set, str(r))
			}
			tr.Pairs = append(tr.Pairs, *pt)
		}
	}

	// Rule 4: operations whose only forbidden latency is the trivial
	// 0-self-contention need a dedicated single-usage resource; every other
	// resource-using operation appears in some elementary pair, which
	// already forbids its 0-self-contention.
	for x := 0; x < m.NumOps; x++ {
		if m.SelfOnly(x) {
			cand.add(g.vertex(x, 0))
			if g.register(cand) && tr != nil {
				tr.Pairs = append(tr.Pairs, PairTrace{
					Pair:  ElemPair{X: x, Y: x, F: 0},
					Steps: []TraceStep{{Rule4, "", str(cand)}},
				})
			}
			cand.clear()
		}
	}
	g.compact()

	out := make([]*Resource, len(g.live))
	for i, s := range g.live {
		out[i] = g.resource(s)
	}
	return out
}

// usageSet is a resource under construction: a bitmap over the usage
// vertices, where usage (op, cycle) is vertex op*span + cycle, so
// ascending vertex order is ascending encoded-usage order. n, sig, lo and
// hi summarize the bitmap for the subset prefilters, all of them exact
// (they never reject a true subset).
type usageSet struct {
	words []uint64 // zero outside [lo, hi]
	n     int      // number of usages
	sig   uint64   // bit w%64 set for every non-zero word w
	// lo and hi bound the words that may be non-zero. Live resources keep
	// them tight (first and last non-zero word); the scratch candidate
	// keeps the range it has written until summarize tightens it.
	lo, hi int
	dead   bool // dominated during the current pair; dropped by compact
}

// add inserts vertex v.
func (s *usageSet) add(v int) {
	w, b := v>>6, uint64(1)<<(v&63)
	if s.words[w]&b != 0 {
		return
	}
	s.words[w] |= b
	s.sig |= 1 << (w & 63)
	if s.lo > s.hi { // empty and nothing written
		s.lo, s.hi = w, w
	} else {
		s.lo, s.hi = min(s.lo, w), max(s.hi, w)
	}
	s.n++
}

// intersect sets the empty scratch s to q & row over q's words and counts
// its usages. sig is left for summarize.
func (s *usageSet) intersect(q *usageSet, row []uint64) {
	qw := q.words[q.lo : q.hi+1]
	rw, sw := row[q.lo:q.hi+1], s.words[q.lo:q.hi+1]
	n := 0
	for i, x := range qw {
		x &= rw[i]
		sw[i] = x
		n += bits.OnesCount64(x)
	}
	s.n, s.lo, s.hi = n, q.lo, q.hi
}

// clear empties the scratch s, zeroing only the words it may have written.
func (s *usageSet) clear() {
	clear(s.words[s.lo : s.hi+1])
	s.n, s.sig, s.lo, s.hi = 0, 0, 1, 0
}

// subsetOf reports whether every usage of s is a usage of t: prefilters on
// size, word signature and non-zero word range, then a word-wise
// AND-NOT over s's range.
func (s *usageSet) subsetOf(t *usageSet) bool {
	if s.n > t.n || s.sig&^t.sig != 0 || s.lo < t.lo || s.hi > t.hi {
		return false
	}
	tw := t.words[s.lo : s.hi+1]
	for i, x := range s.words[s.lo : s.hi+1] {
		if x&^tw[i] != 0 {
			return false
		}
	}
	return true
}

// genset is the working state of one GeneratingSet call.
type genset struct {
	m        *forbidden.Matrix
	span, nw int
	// live is the antichain of live resources in creation order; dead
	// entries are removed (and their bitmaps recycled through free) after
	// every pair.
	live, free []*usageSet
	cand       usageSet // scratch for Rule 2-4 candidates, all zero between uses
	// rows0[x] is the compatibility row of usage (x, 0) and rows1[y] that
	// of usage (y, lat1[y]): bit v is set when usage v may share a resource
	// with it. Built on first use; rows1[y] is rebuilt when the pair
	// latency moves on, so the rows take O(ops² · span) bits, the size of F.
	rows0, rows1 [][]uint64
	lat1         []int
	both         []uint64 // rows0[x] & rows1[y] for the current pair
}

func newGenset(m *forbidden.Matrix) *genset {
	nw := (m.NumOps*m.Span + 63) / 64
	return &genset{
		m:     m,
		span:  m.Span,
		nw:    nw,
		rows0: make([][]uint64, m.NumOps),
		rows1: make([][]uint64, m.NumOps),
		lat1:  make([]int, m.NumOps),
		both:  make([]uint64, nw),
		cand:  usageSet{words: make([]uint64, nw), lo: 1},
	}
}

// vertex returns the usage vertex of (op, cycle).
func (g *genset) vertex(op, cycle int) int {
	if cycle > cycleMask {
		panic(fmt.Sprintf("core: usage cycle %d out of range", cycle))
	}
	return op*g.span + cycle
}

// pairRow returns the usages compatible with both usages of pair p.
func (g *genset) pairRow(p ElemPair) []uint64 {
	row0, row1 := g.row(p.X, 0), g.row(p.Y, p.F)
	for w := range g.both {
		g.both[w] = row0[w] & row1[w]
	}
	return g.both
}

// row returns the compatibility row of usage (y, f).
func (g *genset) row(y, f int) []uint64 {
	if f == 0 {
		if g.rows0[y] == nil {
			g.rows0[y] = make([]uint64, g.nw)
			g.toggleRow(g.rows0[y], y, 0)
		}
		return g.rows0[y]
	}
	r := g.rows1[y]
	switch {
	case r == nil:
		r = make([]uint64, g.nw)
		g.rows1[y] = r
	case g.lat1[y] == f:
		return r
	default:
		g.toggleRow(r, y, g.lat1[y]) // back to all zero
	}
	g.toggleRow(r, y, f)
	g.lat1[y] = f
	return r
}

// toggleRow flips in row the bit of every usage (op, c) that may share a
// resource with usage (y, f): their collision forbids latency f - c in
// F[op][y], which must already be forbidden.
func (g *genset) toggleRow(row []uint64, y, f int) {
	for op := 0; op < g.m.NumOps; op++ {
		base := op * g.span
		g.m.Set(op, y).ForEach(func(l int) bool {
			if l > f {
				return false // c < 0 from here on
			}
			if c := f - l; c < g.span {
				v := base + c
				row[v>>6] ^= 1 << (v & 63)
			}
			return true
		})
	}
}

// summarize tightens the scratch's word range to its non-zero words and
// computes its word signature, as subsetOf requires.
func (s *usageSet) summarize() {
	for s.words[s.lo] == 0 {
		s.lo++
	}
	for s.words[s.hi] == 0 {
		s.hi--
	}
	s.sig = 0
	for w := s.lo; w <= s.hi; w++ {
		if s.words[w] != 0 {
			s.sig |= 1 << (w & 63)
		}
	}
}

// register summarizes the scratch candidate c and inserts a copy of it
// into the live set, maintaining the set as an antichain under usage-set
// inclusion: c is discarded when a live superset already exists (the
// superset serves as the growth seed in Theorem 1's induction), and live
// subsets of c die (they are dominated — their generated latencies are a
// subset of c's, so the final pruning would remove them anyway). This
// keeps the generating set near the true number of maximal resources
// instead of accumulating combinatorially many submaximal intermediates
// on dense machines.
func (g *genset) register(c *usageSet) bool {
	c.summarize()
	for _, q := range g.live {
		if q.dead {
			continue
		}
		if c.subsetOf(q) {
			return false
		}
		if q.subsetOf(c) {
			q.dead = true
		}
	}
	var r *usageSet
	if k := len(g.free); k > 0 {
		r, g.free = g.free[k-1], g.free[:k-1]
	} else {
		r = &usageSet{words: make([]uint64, g.nw)}
	}
	copy(r.words[c.lo:c.hi+1], c.words[c.lo:c.hi+1])
	r.n, r.sig, r.lo, r.hi = c.n, c.sig, c.lo, c.hi
	g.live = append(g.live, r)
	return true
}

// compact drops dead resources from the live set, keeping creation order,
// and recycles their bitmaps.
func (g *genset) compact() {
	out := g.live[:0]
	for _, r := range g.live {
		if !r.dead {
			out = append(out, r)
			continue
		}
		clear(r.words[r.lo : r.hi+1])
		r.dead = false
		g.free = append(g.free, r)
	}
	clear(g.live[len(out):])
	g.live = out
}

// resource converts s to a Resource with sorted encoded usages.
func (g *genset) resource(s *usageSet) *Resource {
	uses := make([]uint32, 0, s.n)
	for w := s.lo; w <= s.hi; w++ {
		for x := s.words[w]; x != 0; x &= x - 1 {
			v := w<<6 | bits.TrailingZeros64(x)
			uses = append(uses, encodeU(v/g.span, v%g.span))
		}
	}
	return &Resource{uses: uses}
}
