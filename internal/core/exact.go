package core

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/forbidden"
	"repro/internal/obs"
)

// ExactCoverResult is the outcome of the optimal cover search.
type ExactCoverResult struct {
	// Selected is the best selection found (minimum total usages).
	Selected []Selected
	// Usages is its total usage count.
	Usages int
	// Optimal reports whether the search completed (false: the node
	// budget ran out and Selected is only the best found so far).
	Optimal bool
	// Nodes is the number of search nodes explored.
	Nodes int
	// BoundImprovements counts complete covers that improved on the
	// best bound (0 = the greedy seed was never beaten).
	BoundImprovements int
}

// ExactCover computes a minimum-resource-usage cover of the forbidden
// latencies by branch and bound over the pruned generating set — the
// integer-programming formulation the paper mentions and sets aside for a
// fast heuristic (Section 5). It is exponential and intended for small
// machines, to quantify how close the greedy SelectCover lands; maxNodes
// bounds the search (0 means 1e6).
//
// The search runs entirely on dense indices: triples live in a flat
// cover-count array, per-resource selections are bitset words, and the
// triples generated by a usage pair come from a precomputed
// pair-to-triple table — the per-node loop performs no map operations and
// no allocations (pinned by TestExactSearchZeroAlloc).
func ExactCover(m *forbidden.Matrix, G []*Resource, maxNodes int) ExactCoverResult {
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	start := time.Now()

	in := newExactInstance(m, G)

	// Greedy solution provides the initial upper bound.
	greedy := SelectCover(m, G, Objective{Kind: ResUses})
	sh := &exactShared{maxNodes: int64(maxNodes)}
	sh.best = ExactCoverResult{Selected: greedy, Usages: totalUsages(greedy)}
	in.sh = sh

	st := in.newState()
	completed := st.search(0)

	best := sh.best
	best.Optimal = completed
	best.Nodes = int(sh.nodes)
	best.BoundImprovements = sh.improvements
	if obs.Enabled() {
		s := obs.Default().Scope("core").Scope("exact")
		s.Counter("searches").Inc()
		s.Counter("nodes").Add(int64(best.Nodes))
		s.Counter("bound_improvements").Add(int64(best.BoundImprovements))
		s.Histogram("depth").Observe(int64(st.maxDepth))
		if !best.Optimal {
			s.Counter("truncated").Inc()
		}
		obs.Default().Scope("core").Scope("stage").Histogram("exact").
			Observe(time.Since(start).Microseconds())
	}
	return best
}

func totalUsages(sel []Selected) int {
	n := 0
	for _, s := range sel {
		n += len(s.Uses)
	}
	return n
}

// exactShared is the search-wide state: the node budget and the best
// cover found so far, whose usage count is the pruning bound.
type exactShared struct {
	nodes        int64
	maxNodes     int64
	best         ExactCoverResult
	improvements int
}

// record installs a complete cover. search only reaches a complete cover
// that is strictly below the bound, so every call is an improvement.
func (sh *exactShared) record(usages int, st *exactState) {
	sh.best.Usages = usages
	sh.best.Selected = st.snapshot()
	sh.improvements++
}

// exactCand is one way to cover a triple: select usages a and b (dense
// per-resource indices) of resource res.
type exactCand struct {
	res  int32
	a, b int32
}

// exactInstance is the dense, immutable description of one exact-cover
// problem, read by the search state.
type exactInstance struct {
	G    []*Resource
	ti   *tripleIndex
	numT int
	// order lists the triple indices sorted by ascending candidate count,
	// ties by dense index; the first uncovered entry is always the triple
	// the search branches on (fewest candidates first).
	order []int32
	// cands lists, per dense triple, the usage pairs that generate it, in
	// (resource, usage-pair) enumeration order.
	cands [][]exactCand
	// resUses holds each resource's usages, indexable by dense usage
	// index; the index order is the (cycle, op) sort of Resource.Uses, so
	// ascending-bit iteration of a selection is already output order.
	resUses [][]U
	// pairTriple is, per resource with n usages, an n*n table:
	// pairTriple[r][i*n+j] is the dense triple generated by usage i paired
	// with usage j (i first, latency cycle_j - cycle_i), or -1 when that
	// latency is negative.
	pairTriple [][]int32
	// lbFor[c] is an admissible lower bound on the usages any cover of c
	// uncovered triples must still add: one selected usage covers at most
	// max-per-usage-coverage triples, so k usages cover at most the sum of
	// the k largest per-usage coverages, and lbFor[c] is the smallest k
	// whose top-k coverage sum reaches c.
	lbFor []int32
	sh    *exactShared
}

func newExactInstance(m *forbidden.Matrix, G []*Resource) *exactInstance {
	ti := newTripleIndex(m)
	in := &exactInstance{G: G, ti: ti, numT: ti.Len()}
	in.resUses = make([][]U, len(G))
	in.pairTriple = make([][]int32, len(G))
	in.cands = make([][]exactCand, in.numT)
	for ri, r := range G {
		us := r.Uses()
		in.resUses[ri] = us
		n := len(us)
		pt := make([]int32, n*n)
		for i, a := range us {
			for j, b := range us {
				f := b.Cycle - a.Cycle
				if f < 0 {
					pt[i*n+j] = -1
					continue
				}
				t := ti.index(a.Op, b.Op, f)
				pt[i*n+j] = t
				if t >= 0 {
					in.cands[t] = append(in.cands[t], exactCand{int32(ri), int32(i), int32(j)})
				}
			}
		}
		in.pairTriple[ri] = pt
	}
	in.buildOrder()
	in.buildLB()
	return in
}

func (in *exactInstance) buildOrder() {
	in.order = make([]int32, in.numT)
	for i := range in.order {
		in.order[i] = int32(i)
	}
	// Stable: ties keep dense-index (= enumeration) order, matching the
	// first-minimum pick of the map-based search this replaced.
	sort.SliceStable(in.order, func(i, j int) bool {
		return len(in.cands[in.order[i]]) < len(in.cands[in.order[j]])
	})
}

// buildLB computes the per-usage coverage counts and folds them into the
// lbFor table (see the field comment for the bound's argument).
func (in *exactInstance) buildLB() {
	var covs []int
	mark := make([]int32, in.numT)
	epoch := int32(0)
	for ri := range in.G {
		n := len(in.resUses[ri])
		pt := in.pairTriple[ri]
		for i := 0; i < n; i++ {
			epoch++
			c := 0
			for j := 0; j < n; j++ {
				if t := pt[i*n+j]; t >= 0 && mark[t] != epoch {
					mark[t] = epoch
					c++
				}
				if t := pt[j*n+i]; t >= 0 && mark[t] != epoch {
					mark[t] = epoch
					c++
				}
			}
			covs = append(covs, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(covs)))
	in.lbFor = make([]int32, in.numT+1)
	sum, k := 0, 0
	for c := 1; c <= in.numT; c++ {
		for sum < c && k < len(covs) {
			sum += covs[k]
			k++
		}
		// sum < c is unreachable for complete generating sets (every
		// triple has a candidate); saturating at k keeps the bound
		// admissible regardless.
		in.lbFor[c] = int32(k)
	}
}

// exactState is one search's mutable state: flat cover counts per dense
// triple and per-resource selection bitsets. All slices are allocated at
// construction; search/apply/undo/coverDelta never allocate.
type exactState struct {
	in        *exactInstance
	covered   []int32    // per dense triple: selected-pair cover count
	selected  [][]uint64 // per resource: bitset over dense usage indices
	uncovered int
	usages    int
	maxDepth  int
}

func (in *exactInstance) newState() *exactState {
	st := &exactState{
		in:        in,
		covered:   make([]int32, in.numT),
		uncovered: in.numT,
		selected:  make([][]uint64, len(in.resUses)),
	}
	total := 0
	for _, us := range in.resUses {
		total += (len(us) + 63) / 64
	}
	words := make([]uint64, total)
	off := 0
	for i, us := range in.resUses {
		w := (len(us) + 63) / 64
		st.selected[i] = words[off : off+w : off+w]
		off += w
	}
	return st
}

// search explores selections; returns false if the node budget was hit.
func (s *exactState) search(depth int) bool {
	sh := s.in.sh
	sh.nodes++
	if sh.nodes > sh.maxNodes {
		return false
	}
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	// Admissible lower bound: no completion of this node can beat the
	// best so far, so prune (lbFor[0] = 0 keeps the complete-cover case
	// exact).
	if s.usages+int(s.in.lbFor[s.uncovered]) >= sh.best.Usages {
		return true
	}
	if s.uncovered == 0 {
		// Complete cover, strictly better than the bound checked above.
		sh.record(s.usages, s)
		return true
	}
	// First uncovered triple in candidate-count order = the uncovered
	// triple with the fewest candidates.
	var pick int32 = -1
	for _, t := range s.in.order {
		if s.covered[t] == 0 {
			pick = t
			break
		}
	}
	complete := true
	for _, c := range s.in.cands[pick] {
		added := s.apply(c)
		if !s.search(depth + 1) {
			complete = false
		}
		s.undo(c, added)
		if sh.nodes > sh.maxNodes {
			return false
		}
	}
	return complete
}

// apply selects candidate c's usages; returns which were newly added.
func (s *exactState) apply(c exactCand) (added [2]bool) {
	added[0] = s.addUse(c.res, c.a)
	if c.b != c.a {
		added[1] = s.addUse(c.res, c.b)
	}
	return added
}

func (s *exactState) undo(c exactCand, added [2]bool) {
	if added[1] {
		s.removeUse(c.res, c.b)
	}
	if added[0] {
		s.removeUse(c.res, c.a)
	}
}

func (s *exactState) addUse(res, u int32) bool {
	w, b := u/64, uint(u%64)
	if s.selected[res][w]&(1<<b) != 0 {
		return false
	}
	s.selected[res][w] |= 1 << b
	s.usages++
	s.coverDelta(res, u, +1)
	return true
}

func (s *exactState) removeUse(res, u int32) {
	s.coverDelta(res, u, -1)
	s.selected[res][u/64] &^= 1 << uint(u%64)
	s.usages--
}

// coverDelta updates cover counts for every triple generated by pairing
// usage u with the selected usages of its resource (including itself).
// Called with u already present in (delta>0) or still present in
// (delta<0) the selected set, so pairs are enumerated consistently.
func (s *exactState) coverDelta(res, u int32, delta int32) {
	n := int32(len(s.in.resUses[res]))
	pt := s.in.pairTriple[res]
	row := pt[u*n : u*n+n]
	for wi, w := range s.selected[res] {
		base := int32(wi * 64)
		for w != 0 {
			v := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			if t := row[v]; t >= 0 {
				s.cover(t, delta)
			}
			if v != u {
				if t := pt[v*n+u]; t >= 0 {
					s.cover(t, delta)
				}
			}
		}
	}
}

func (s *exactState) cover(t, delta int32) {
	c := s.covered[t] + delta
	s.covered[t] = c
	if delta > 0 {
		if c == 1 {
			s.uncovered--
		}
	} else if c == 0 {
		s.uncovered++
	}
}

// snapshot decodes the selection bitsets back into Selected values. The
// dense usage index order is Resource.Uses order — (cycle, op) — so the
// ascending bit walk needs no re-sort.
func (s *exactState) snapshot() []Selected {
	var out []Selected
	for ri, words := range s.selected {
		us := s.in.resUses[ri]
		var sel []U
		for wi, w := range words {
			for w != 0 {
				v := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				sel = append(sel, us[v])
			}
		}
		if len(sel) > 0 {
			out = append(out, Selected{Res: s.in.G[ri], Uses: sel})
		}
	}
	return out
}
