package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/forbidden"
	"repro/internal/resmodel"
)

// This file keeps the pre-rewrite map-based Prune and ExactCover as test
// oracles: the dense-index/bitset production paths must reproduce their
// results exactly. The helpers (genTriples, subsetOf, tripleKey) are the
// old production code verbatim; property tests in core_test.go also use
// them as an independent check on the bitset paths.

// genTriples returns the sorted set of non-negative forbidden-latency
// triples generated by the resource: for usages (X, cx) and (Y, cy),
// latency (cy - cx) in F[X][Y] (kept when non-negative).
func genTriples(m *forbidden.Matrix, r *Resource) []int64 {
	us := r.Uses()
	set := make(map[int64]struct{}, len(us)*len(us)/2+1)
	for _, a := range us {
		for _, b := range us {
			f := b.Cycle - a.Cycle
			if f < 0 {
				continue
			}
			set[tcode(a.Op, b.Op, f, m.NumOps, m.Span)] = struct{}{}
		}
	}
	out := make([]int64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subsetOf reports whether sorted slice a is a subset of sorted slice b.
func subsetOf(a, b []int64) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

func tripleKey(ts []int64) string {
	b := make([]byte, 0, len(ts)*8)
	for _, t := range ts {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(t>>uint(s)))
		}
	}
	return string(b)
}

// pruneReference is the pre-rewrite Prune: sorted-[]int64 triple sets,
// string-keyed dedup, merge-based subset dominance.
func pruneReference(m *forbidden.Matrix, G []*Resource) []*Resource {
	type entry struct {
		r       *Resource
		triples []int64
	}
	entries := make([]entry, 0, len(G))
	for _, r := range G {
		if r.dead || r.NumUses() == 0 {
			continue
		}
		entries = append(entries, entry{r, genTriples(m, r)})
	}
	byTriples := map[string]int{}
	keep := make([]bool, len(entries))
	for i := range keep {
		keep[i] = true
	}
	for i, e := range entries {
		k := tripleKey(e.triples)
		if j, dup := byTriples[k]; dup {
			if entries[i].r.NumUses() < entries[j].r.NumUses() {
				keep[j] = false
				byTriples[k] = i
			} else {
				keep[i] = false
			}
		} else {
			byTriples[k] = i
		}
	}
	dedup := entries[:0]
	for i, e := range entries {
		if keep[i] {
			dedup = append(dedup, e)
		}
	}
	entries = dedup
	sort.SliceStable(entries, func(i, j int) bool {
		return len(entries[i].triples) > len(entries[j].triples)
	})
	var kept []entry
	for _, e := range entries {
		dominated := false
		for _, k := range kept {
			if len(k.triples) > len(e.triples) && subsetOf(e.triples, k.triples) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, e)
		}
	}
	out := make([]*Resource, len(kept))
	for i, e := range kept {
		out[i] = e.r
	}
	return out
}

// refExactState is the pre-rewrite map-based exact-cover search, serial.
type refExactState struct {
	m          *forbidden.Matrix
	G          []*Resource
	cands      map[int64][]candidate
	covered    map[int64]int
	selected   []map[uint32]bool
	universe   []int64
	usages     int
	nodes      int
	maxNodes   int
	bestUsages int
	best       []Selected
}

type refExactResult struct {
	selected []Selected
	usages   int
	optimal  bool
	nodes    int
}

func refExactCover(m *forbidden.Matrix, G []*Resource, maxNodes int) refExactResult {
	numOps, span := m.NumOps, m.Span
	var universe []int64
	for x := 0; x < numOps; x++ {
		for y := 0; y < numOps; y++ {
			m.Set(x, y).ForEach(func(f int) bool {
				if f >= 0 {
					universe = append(universe, tcode(x, y, f, numOps, span))
				}
				return true
			})
		}
	}
	cands := make(map[int64][]candidate)
	for ri, r := range G {
		us := r.Uses()
		for _, ua := range us {
			for _, ub := range us {
				f := ub.Cycle - ua.Cycle
				if f < 0 {
					continue
				}
				t := tcode(ua.Op, ub.Op, f, numOps, span)
				cands[t] = append(cands[t], candidate{ri, encodeU(ua.Op, ua.Cycle), encodeU(ub.Op, ub.Cycle)})
			}
		}
	}
	greedy := SelectCover(m, G, Objective{Kind: ResUses})
	st := &refExactState{
		m: m, G: G, cands: cands,
		covered:    map[int64]int{},
		selected:   make([]map[uint32]bool, len(G)),
		universe:   universe,
		maxNodes:   maxNodes,
		bestUsages: totalUsages(greedy),
		best:       greedy,
	}
	for i := range st.selected {
		st.selected[i] = map[uint32]bool{}
	}
	completed := st.search()
	return refExactResult{selected: st.best, usages: st.bestUsages, optimal: completed, nodes: st.nodes}
}

func (s *refExactState) search() bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		return false
	}
	if s.usages >= s.bestUsages {
		return true
	}
	var pick int64 = -1
	pickLen := 1 << 30
	found := false
	for _, t := range s.universe {
		if s.covered[t] > 0 {
			continue
		}
		found = true
		if l := len(s.cands[t]); l < pickLen {
			pick, pickLen = t, l
		}
	}
	if !found {
		s.bestUsages = s.usages
		s.best = s.snapshot()
		return true
	}
	complete := true
	for _, c := range s.cands[pick] {
		added := s.apply(c)
		if !s.search() {
			complete = false
		}
		s.undo(c, added)
		if s.nodes > s.maxNodes {
			return false
		}
	}
	return complete
}

func (s *refExactState) apply(c candidate) [2]bool {
	var added [2]bool
	for i, u := range [2]uint32{c.a, c.b} {
		if i == 1 && c.b == c.a {
			break
		}
		if !s.selected[c.res][u] {
			s.selected[c.res][u] = true
			added[i] = true
			s.usages++
			s.coverDelta(c.res, u, +1)
		}
	}
	return added
}

func (s *refExactState) undo(c candidate, added [2]bool) {
	for i, u := range [2]uint32{c.a, c.b} {
		if i == 1 && c.b == c.a {
			break
		}
		if added[i] {
			s.coverDelta(c.res, u, -1)
			delete(s.selected[c.res], u)
			s.usages--
		}
	}
}

func (s *refExactState) coverDelta(res int, u uint32, delta int) {
	du := decodeU(u)
	numOps, span := s.m.NumOps, s.m.Span
	for v := range s.selected[res] {
		dv := decodeU(v)
		if f := dv.Cycle - du.Cycle; f >= 0 {
			s.covered[tcode(du.Op, dv.Op, f, numOps, span)] += delta
		}
		if v != u {
			if f := du.Cycle - dv.Cycle; f >= 0 {
				s.covered[tcode(dv.Op, du.Op, f, numOps, span)] += delta
			}
		}
	}
}

func (s *refExactState) snapshot() []Selected {
	var out []Selected
	for ri, sel := range s.selected {
		if len(sel) == 0 {
			continue
		}
		us := make([]U, 0, len(sel))
		for u := range sel {
			us = append(us, decodeU(u))
		}
		sort.Slice(us, func(i, j int) bool {
			if us[i].Cycle != us[j].Cycle {
				return us[i].Cycle < us[j].Cycle
			}
			return us[i].Op < us[j].Op
		})
		out = append(out, Selected{Res: s.G[ri], Uses: us})
	}
	return out
}

// TestPruneMatchesReference: the bitset Prune returns exactly the same
// resources (pointer identity) in exactly the same order as the
// pre-rewrite slice-based reference, on random machines.
func TestPruneMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		m := forbidden.Compute(e)
		cm := m.Collapse(m.ComputeClasses())
		gen := GeneratingSet(cm, nil)
		got := Prune(cm, gen)
		want := pruneReference(cm, gen)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestExactCoverMatchesReference: on random small machines, the dense
// branch and bound finds the same optimum as the map-based reference
// whenever the reference completes within the node budget, and its witness is always a valid exact cover. The lower-bound
// pruning only discards subtrees that cannot improve the incumbent, so a
// budget sufficient for the reference is sufficient for the rewrite.
func TestExactCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := resmodel.DefaultRandomConfig()
	cfg.MaxOps = 3
	cfg.MaxSpan = 5
	cfg.MaxUsesPerOp = 3
	const budget = 200_000
	for i := 0; i < 60; i++ {
		e := resmodel.Random(rng, cfg).Expand()
		m := forbidden.Compute(e)
		cm := m.Collapse(m.ComputeClasses())
		pruned := Prune(cm, GeneratingSet(cm, nil))
		ref := refExactCover(cm, pruned, budget)
		got := ExactCover(cm, pruned, budget)
		switch {
		case ref.optimal:
			if !got.Optimal {
				t.Errorf("machine %d: reference optimal in %d nodes, rewrite truncated at %d",
					i, ref.nodes, got.Nodes)
				continue
			}
			if got.Usages != ref.usages {
				t.Errorf("machine %d: optimum %d, reference %d", i, got.Usages, ref.usages)
			}
		case got.Optimal && got.Usages > ref.usages:
			t.Errorf("machine %d: claimed optimum %d worse than truncated reference best %d",
				i, got.Usages, ref.usages)
		}
		built := buildFromSelection(cm, got.Selected, nil)
		if !forbidden.Compute(built).Equal(cm) {
			t.Errorf("machine %d: selection is not an exact cover", i)
		}
	}
}

// TestExactSearchZeroAlloc pins the per-node search loop at zero
// allocations: after instance and state construction, re-running the
// full search on Figure 1's machine (greedy is already optimal there, so
// the incumbent is never re-recorded) must not allocate.
func TestExactSearchZeroAlloc(t *testing.T) {
	in, sh, st := zeroAllocSearchState()
	st.search(0) // warm up; also verifies the state resets cleanly
	if st.usages != 0 || st.uncovered != in.numT {
		t.Fatalf("search left state dirty: usages=%d uncovered=%d/%d", st.usages, st.uncovered, in.numT)
	}
	allocs := testing.AllocsPerRun(50, func() {
		sh.nodes = 0
		st.search(0)
	})
	if allocs != 0 {
		t.Errorf("search allocates %.1f allocs/op, want 0", allocs)
	}
}

func zeroAllocSearchState() (*exactInstance, *exactShared, *exactState) {
	e := figure1()
	m := forbidden.Compute(e)
	cm := m.Collapse(m.ComputeClasses())
	pruned := Prune(cm, GeneratingSet(cm, nil))
	in := newExactInstance(cm, pruned)
	greedy := SelectCover(cm, pruned, Objective{Kind: ResUses})
	sh := &exactShared{maxNodes: 1 << 30}
	sh.best = ExactCoverResult{Selected: greedy, Usages: totalUsages(greedy)}
	in.sh = sh
	return in, sh, in.newState()
}

func BenchmarkExactCoverSearch(b *testing.B) {
	_, sh, st := zeroAllocSearchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.nodes = 0
		st.search(0)
	}
}
