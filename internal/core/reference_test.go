package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// This file keeps the pre-rewrite slice-based GeneratingSet and the
// map-based Prune and ExactCover as test oracles: the bitmap, dense-index
// and bitset production paths must reproduce their results exactly. The
// helpers (genTriples, subsetOf, tripleKey) are the old production code
// verbatim; property tests in core_test.go also use them as an
// independent check on the bitset paths.

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

// refResource is the pre-rewrite resource under construction: a sorted
// slice of encoded usages plus a tombstone flag.
type refResource struct {
	uses []uint32
	dead bool
}

func newRefResource(us ...uint32) *refResource {
	r := &refResource{uses: make([]uint32, 0, len(us))}
	for _, u := range us {
		r.add(u)
	}
	return r
}

// add inserts u in sorted position (no-op when present).
func (r *refResource) add(u uint32) {
	i := sort.Search(len(r.uses), func(i int) bool { return r.uses[i] >= u })
	if i < len(r.uses) && r.uses[i] == u {
		return
	}
	r.uses = append(r.uses, 0)
	copy(r.uses[i+1:], r.uses[i:])
	r.uses[i] = u
}

func (r *refResource) NumUses() int { return len(r.uses) }

// snapshot copies the current usages into a Resource for the trace.
func (r *refResource) snapshot() *Resource {
	return &Resource{uses: slices.Clone(r.uses)}
}

// refCompat reports whether two usages may coexist in one synthesized
// resource: usages (X, cx) and (Y, cy) sharing a resource forbid latency
// (cy - cx) in F[X][Y], which must already be forbidden.
func refCompat(m *forbidden.Matrix, a, b uint32) bool {
	ua, ub := decodeU(a), decodeU(b)
	return m.Forbidden(ua.Op, ub.Op, ub.Cycle-ua.Cycle)
}

// generatingSetReference is the pre-rewrite GeneratingSet: resources are
// sorted usage slices, dominated ones are tombstoned in one creation list
// that every scan walks, and subset tests are linear merges. A traced run
// records a fresh copy of every resource it names.
func generatingSetReference(m *forbidden.Matrix, tr *Trace) []*Resource {
	var G []*refResource

	// subsetOfRes reports whether every usage of a is in b: a linear merge
	// over the sorted usage slices.
	subsetOfRes := func(a, b *refResource) bool {
		if len(a.uses) > len(b.uses) {
			return false
		}
		j := 0
		for _, u := range a.uses {
			for j < len(b.uses) && b.uses[j] < u {
				j++
			}
			if j >= len(b.uses) || b.uses[j] != u {
				return false
			}
			j++
		}
		return true
	}

	// register inserts r into G, maintaining G as an antichain under
	// usage-set inclusion: r is discarded when a live superset already
	// exists (the superset serves as the growth seed in Theorem 1's
	// induction), and live subsets of r are tombstoned (they are dominated
	// — their generated latencies are a subset of r's, so the final
	// pruning would remove them anyway). This keeps the generating set
	// near the true number of maximal resources instead of accumulating
	// combinatorially many submaximal intermediates on dense machines.
	register := func(r *refResource) bool {
		for _, q := range G {
			if q.dead {
				continue
			}
			if subsetOfRes(r, q) {
				return false
			}
			if subsetOfRes(q, r) {
				q.dead = true
			}
		}
		G = append(G, r)
		return true
	}

	// compatible is the scan buffer: the usages of the resource under
	// test that are compatible with both pair usages. newRefResource
	// copies what it keeps, so the buffer is reused across rule
	// applications.
	var compatible []uint32

	for _, p := range elementaryPairs(m) {
		u0, u1 := encodeU(p.X, 0), encodeU(p.Y, p.F)
		containsBoth := false
		var pt *PairTrace
		if tr != nil {
			pt = &PairTrace{Pair: p}
		}

		snap := len(G) // resources created for this pair are not reprocessed with it
		for i := 0; i < snap; i++ {
			q := G[i]
			if q.dead {
				continue
			}
			// Compatibility scan: is every usage of q compatible with both
			// pair usages, and which ones are?
			compatible = compatible[:0]
			fully := true
			for _, u := range q.uses {
				if refCompat(m, u, u0) && refCompat(m, u, u1) {
					compatible = append(compatible, u)
				} else {
					fully = false
				}
			}
			switch {
			case fully:
				// Rule 1: add the pair's usages to q in place, then restore
				// the antichain (q may have converged onto or absorbed
				// another resource).
				var before *Resource
				if pt != nil {
					before = q.snapshot()
				}
				q.add(u0)
				q.add(u1)
				for j, other := range G {
					if j == i || other.dead {
						continue
					}
					if subsetOfRes(q, other) {
						q.dead = true
						break
					}
					if subsetOfRes(other, q) {
						other.dead = true
					}
				}
				containsBoth = true
				if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule1, before, q.snapshot()})
				}
			default:
				// Rule 2: consider a new resource = pair + compatible usages
				// of q. If that resource is simply the pair itself with no
				// other usages, it is discarded (Rule 3 decides later).
				nr := newRefResource(append(compatible, u0, u1)...)
				if nr.NumUses() > 2 {
					added := register(nr)
					containsBoth = true // nr (or its live duplicate) contains both
					if pt != nil {
						var after *Resource
						if added {
							after = nr.snapshot()
						}
						pt.Steps = append(pt.Steps, TraceStep{Rule2, q.snapshot(), after})
					}
				} else if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule2Discard, q.snapshot(), nil})
				}
			}
		}

		if !containsBoth {
			// Rule 3: the pair itself becomes a new resource.
			nr := newRefResource(u0, u1)
			register(nr)
			if pt != nil {
				pt.Steps = append(pt.Steps, TraceStep{Rule3, nil, nr.snapshot()})
			}
		}

		if pt != nil {
			for _, r := range G {
				if !r.dead {
					pt.Set = append(pt.Set, r.snapshot())
				}
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
			nr := newRefResource(encodeU(x, 0))
			if register(nr) && tr != nil {
				tr.Pairs = append(tr.Pairs, PairTrace{
					Pair:  ElemPair{X: x, Y: x, F: 0},
					Steps: []TraceStep{{Rule4, nil, nr.snapshot()}},
				})
			}
		}
	}

	// Drop tombstoned duplicates.
	var out []*Resource
	for _, r := range G {
		if !r.dead {
			out = append(out, &Resource{uses: r.uses})
		}
	}
	return out
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
		if r.NumUses() == 0 {
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

// TestGeneratingSetMatchesReference: the bitmap GeneratingSet returns the
// same resources, in the same order, as the pre-rewrite slice-based
// reference, and a traced run records the same rule applications and
// intermediate sets pair by pair. Machines: the built-ins, the
// FuzzReducePreservesF seeds, 300 default random machines, and random
// machines with multi-word bitmaps (wide spans) and with more than 64
// classes (where operation signatures share bits).
func TestGeneratingSetMatchesReference(t *testing.T) {
	type tcase struct {
		name string
		m    *resmodel.Machine
	}
	var cases []tcase
	for _, name := range machines.Names() {
		cases = append(cases, tcase{name, machines.ByName(name)})
	}
	for i, seed := range fuzzReduceSeeds(t) {
		r := &byteReader{data: seed}
		decodeObjective(r.next())
		if m := decodeMachine(r); m != nil {
			cases = append(cases, tcase{fmt.Sprintf("fuzz seed %d", i), m})
		}
	}
	wide := resmodel.RandomConfig{MaxResources: 12, MaxOps: 10, MaxSpan: 24, MaxUsesPerOp: 3, AltProb: 0.2, EmptyOpProb: 0.05}
	many := resmodel.RandomConfig{MaxResources: 120, MaxOps: 100, MaxSpan: 2, MaxUsesPerOp: 2, EmptyOpProb: 0.05}
	for _, g := range []struct {
		name string
		cfg  resmodel.RandomConfig
		n    int
	}{{"default", resmodel.DefaultRandomConfig(), 300}, {"wide", wide, 60}, {"many", many, 20}} {
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < g.n; i++ {
			cases = append(cases, tcase{fmt.Sprintf("%s random %d", g.name, i), resmodel.Random(rng, g.cfg)})
		}
	}

	manyClasses := 0
	for _, c := range cases {
		m := forbidden.Compute(c.m.Expand())
		cm := m.Collapse(m.ComputeClasses())
		if cm.NumOps > 64 {
			manyClasses++
		}
		var gotTr, wantTr Trace
		got, want := GeneratingSet(cm, &gotTr), generatingSetReference(cm, &wantTr)
		if !sameResources(got, want) {
			t.Fatalf("%s: generating set\n got %v\nwant %v", c.name, usesOf(got), usesOf(want))
		}
		if untraced := GeneratingSet(cm, nil); !sameResources(untraced, want) {
			t.Fatalf("%s: untraced generating set differs from the reference", c.name)
		}
		if len(gotTr.Pairs) != len(wantTr.Pairs) {
			t.Fatalf("%s: trace has %d pairs, want %d", c.name, len(gotTr.Pairs), len(wantTr.Pairs))
		}
		for i, w := range wantTr.Pairs {
			g := gotTr.Pairs[i]
			if g.Pair != w.Pair || !slices.EqualFunc(g.Steps, w.Steps, sameStep) || !sameResources(g.Set, w.Set) {
				t.Fatalf("%s: trace pair %d\n got %v %v set %v\nwant %v %v set %v", c.name, i,
					g.Pair, stepUses(g.Steps), usesOf(g.Set), w.Pair, stepUses(w.Steps), usesOf(w.Set))
			}
		}
	}
	if manyClasses == 0 {
		t.Error("no case has more than 64 classes; the signature-sharing path went untested")
	}
}

func sameResources(a, b []*Resource) bool {
	return slices.EqualFunc(a, b, sameResource)
}

// sameResource compares usage slices; nil (no resource) equals only nil.
func sameResource(a, b *Resource) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.uses, b.uses)
}

func sameStep(a, b TraceStep) bool {
	return a.Rule == b.Rule && sameResource(a.Before, b.Before) && sameResource(a.After, b.After)
}

func usesOf(G []*Resource) [][]uint32 {
	out := make([][]uint32, len(G))
	for i, r := range G {
		if r != nil {
			out[i] = r.uses
		}
	}
	return out
}

// stepUses lists each step as its rule and its Before and After usages.
func stepUses(steps []TraceStep) []string {
	out := make([]string, len(steps))
	for i, st := range steps {
		out[i] = fmt.Sprintf("%d %v", st.Rule, usesOf([]*Resource{st.Before, st.After}))
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
