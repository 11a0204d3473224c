package automaton

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/resmodel"
)

// PairModule supports the unrestricted scheduling model on top of
// finite-state automata, in the style the paper attributes to Bala &
// Rubin (Section 2): per-cycle automaton states are stored for the whole
// partial schedule, an operation may be inserted at any cycle, and an
// insertion's additional resource requirements are *propagated* through
// the stored states of adjacent cycles — the memory and computation
// overhead the paper contrasts with reduced reservation tables.
//
// Check(op, t) first consults the stored forward state at cycle t (a
// single table lookup, the automaton approach's strength), then verifies
// the insertion by propagating the op's residual commitments across the
// following span-1 cycles, re-issuing the operations scheduled there; a
// stored reverse-automaton state per completion anchor gives a second
// O(1) rejection test before propagation. Assign updates the stored
// states; Free recomputes them forward from the freed cycle until they
// converge. Both repair the reverse states incrementally from the
// changed anchor downward instead of rebuilding the whole reverse walk,
// so the work they charge is the states actually recomputed, not
// O(horizon).
//
// PairModule implements query.Module for linear schedules only (the
// paper notes that modulo schedules and assign&free are where automata
// struggle most; AssignFree here falls back to explicit overlap tests
// against the scheduled-instance list). It does not support dangling
// seeding: a dangling window would need up to O(span²) extra interned
// states, which is exactly the blow-up the reduced representations
// avoid. It is the paper's §2 comparator, built directly by callers
// (NewPairModule), never served by query.Select.
type PairModule struct {
	e   *resmodel.Expanded
	fwd *Automaton
	rev *Automaton

	// issuedAt[t] lists the instances issued in cycle t.
	issuedAt [][]pairInst
	// anchored[a] lists the instances whose reservation table ends at
	// forward cycle a (a = issue cycle + span): the reverse automaton
	// issues an operation at its completion anchor, so anchor-indexed
	// bookkeeping keeps every stored reverse state meaningful no matter
	// how far the horizon later grows.
	anchored [][]pairInst
	// fIn[t] is the forward-automaton state at entry of cycle t (all
	// operations of cycles < t issued and advanced). len(fIn) >= horizon+1.
	fIn []int32
	// rIn[a] is the reverse-automaton state after issuing and advancing
	// every instance anchored strictly above a. rIn[horizon] is the empty
	// state, and because the empty state is a fixed point of the advance
	// transition, extending the horizon merely appends empty states —
	// existing entries stay valid, which is what makes incremental repair
	// (instead of a full reverse rebuild) sound. Check's fast rejection
	// for (op, cycle) reads rIn[cycle+span(op)] with one lookup.
	rIn []int32
	// horizon is one past the last cycle that can hold commitments.
	horizon int

	inst         map[int]pairPlaced
	evictScratch []int
	ctr          query.Counters
}

type pairInst struct {
	id int
	op int
}

type pairPlaced struct {
	op    int
	cycle int
}

// pairKey identifies a cached forward/reverse automaton pair: automata
// depend only on the expanded description (pointer identity, like the
// query package's compile cache) and the state budget they were built
// under.
type pairKey struct {
	e         *resmodel.Expanded
	maxStates int
}

// pairAutomata caches a build outcome — including failures: a
// description that exceeds the state budget (the Cydra 5 does, by
// orders of magnitude) costs real time to re-discover.
type pairAutomata struct {
	fwd, rev *Automaton
	err      error
}

var (
	pairCacheMu sync.Mutex
	pairCache   = map[pairKey]*pairAutomata{}
)

const pairCacheCap = 64

// automataFor returns the shared forward/reverse automaton pair for e
// under lim, building on first use. Automata are immutable after
// construction (modules keep all mutable state in per-cycle walkers),
// so sharing across modules and goroutines is safe.
func automataFor(e *resmodel.Expanded, lim Limit) (*pairAutomata, error) {
	key := pairKey{e: e, maxStates: lim.MaxStates}
	pairCacheMu.Lock()
	if got, ok := pairCache[key]; ok {
		pairCacheMu.Unlock()
		return got, got.err
	}
	pairCacheMu.Unlock()

	pa := &pairAutomata{}
	pa.fwd, pa.err = BuildForward(e, lim)
	if pa.err == nil {
		pa.rev, pa.err = BuildReverse(e, lim)
	}

	pairCacheMu.Lock()
	if got, ok := pairCache[key]; ok { // raced with another builder
		pairCacheMu.Unlock()
		return got, got.err
	}
	if len(pairCache) >= pairCacheCap {
		clear(pairCache)
	}
	pairCache[key] = pa
	pairCacheMu.Unlock()
	return pa, pa.err
}

// NewPairModule builds (or fetches from the process-wide cache) the
// forward/reverse automaton pair for the description and returns an
// empty schedule over it.
func NewPairModule(e *resmodel.Expanded, lim Limit) (*PairModule, error) {
	pa, err := automataFor(e, lim)
	if err != nil {
		return nil, err
	}
	p := &PairModule{
		e:    e,
		fwd:  pa.fwd,
		rev:  pa.rev,
		inst: map[int]pairPlaced{},
	}
	p.growTo(32)
	return p, nil
}

func (p *PairModule) growTo(horizon int) {
	if horizon <= p.horizon {
		return
	}
	for len(p.issuedAt) < horizon {
		p.issuedAt = append(p.issuedAt, nil)
	}
	for len(p.anchored) < horizon+1 {
		p.anchored = append(p.anchored, nil)
	}
	for len(p.fIn) < horizon+1 {
		p.fIn = append(p.fIn, 0)
	}
	old := p.horizon
	p.horizon = horizon
	// Extending the horizon leaves forward states valid (empty cycles map
	// to advance transitions of the last state).
	st := p.fIn[old]
	for t := old; t < horizon; t++ {
		st = p.stepCycle(st, t)
		p.fIn[t+1] = st
	}
	// Reverse states above the old horizon see no anchors above them, so
	// they are all the empty state; everything below is untouched.
	for len(p.rIn) < horizon+1 {
		p.rIn = append(p.rIn, 0)
	}
}

// stepCycle issues every instance of cycle t in state st and advances; it
// panics if the stored schedule itself conflicts, which would be an
// internal-consistency bug.
func (p *PairModule) stepCycle(st int32, t int) int32 {
	w := Walker{a: p.fwd, cur: st}
	for _, in := range p.issuedAt[t] {
		if !w.Issue(in.op) {
			panic("automaton: stored schedule became inconsistent")
		}
	}
	w.Advance()
	return w.cur
}

// repairReverse recomputes the stored reverse states below anchor from,
// after the instance set anchored there changed. rIn[a-1] is a pure
// function of rIn[a] and anchored[a], so the walk proceeds downward and
// stops at the first anchor whose recomputed state matches the stored
// one — below that point nothing can differ. The return value is the
// number of states recomputed: the honest incremental cost charged to
// AssignWork/FreeWork in place of the old full-rebuild O(horizon).
func (p *PairModule) repairReverse(from int) int64 {
	var n int64
	w := Walker{a: p.rev}
	for a := from; a >= 1; a-- {
		w.cur = p.rIn[a]
		for _, in := range p.anchored[a] {
			if !w.Issue(in.op) {
				panic("automaton: reverse schedule inconsistent")
			}
		}
		w.Advance()
		n++
		if w.cur == p.rIn[a-1] {
			break
		}
		p.rIn[a-1] = w.cur
	}
	return n
}

// span returns the reservation-table span of op.
func (p *PairModule) span(op int) int { return p.e.Ops[op].Table.Span() }

// Schedulable implements query.Module (linear tables always succeed).
func (p *PairModule) Schedulable(op int) bool { return true }

// Check implements query.Module.
func (p *PairModule) Check(op, cycle int) bool {
	p.ctr.CheckCalls++
	ok, work := p.probe(op, cycle)
	p.ctr.CheckWork += work
	return ok
}

// probe is the uncounted feasibility core shared by Check and the range
// queries; it returns the answer and the work units (state transitions)
// spent, so each caller charges its own counter.
func (p *PairModule) probe(op, cycle int) (bool, int64) {
	if cycle < 0 {
		panic(fmt.Sprintf("automaton: negative cycle %d", cycle))
	}
	s := p.span(op)
	p.growTo(cycle + s + 1)

	// Fast rejection #1: forward state at entry of the cycle plus this
	// cycle's own ops (covers all operations issued at cycles <= cycle).
	work := int64(1)
	w := Walker{a: p.fwd, cur: p.fIn[cycle]}
	for _, in := range p.issuedAt[cycle] {
		if !w.Issue(in.op) {
			panic("automaton: stored schedule inconsistent")
		}
	}
	if !w.CanIssue(op) {
		return false, work
	}

	// Fast rejection #2: reverse state at the op's completion anchor
	// (covers operations whose tables extend past this op's completion).
	work++
	rw := Walker{a: p.rev, cur: p.rIn[cycle+s]}
	if !rw.CanIssue(op) {
		return false, work
	}

	// Exact verification: propagate the inserted op's residual through
	// the next span-1 cycles, re-issuing the operations stored there (the
	// state-update overhead of supporting unrestricted scheduling).
	if !w.Issue(op) {
		return false, work
	}
	w.Advance()
	st := w.cur
	for u := cycle + 1; u < cycle+s; u++ {
		work++
		ww := Walker{a: p.fwd, cur: st}
		for _, in := range p.issuedAt[u] {
			if !ww.Issue(in.op) {
				return false, work // an already-scheduled op would now conflict
			}
		}
		ww.Advance()
		st = ww.cur
	}
	return true, work
}

// Assign implements query.Module: store the instance and propagate the
// state updates through both automata.
func (p *PairModule) Assign(op, cycle, id int) {
	p.ctr.AssignCalls++
	p.assign(op, cycle, id)
}

func (p *PairModule) assign(op, cycle, id int) {
	s := p.span(op)
	p.growTo(cycle + s + 1)
	p.issuedAt[cycle] = append(p.issuedAt[cycle], pairInst{id: id, op: op})
	p.anchored[cycle+s] = append(p.anchored[cycle+s], pairInst{id: id, op: op})
	p.inst[id] = pairPlaced{op: op, cycle: cycle}
	// Recompute forward states from the insertion until convergence.
	st := p.fIn[cycle]
	for t := cycle; t < p.horizon; t++ {
		p.ctr.AssignWork++
		st = p.stepCycle(st, t)
		if st == p.fIn[t+1] && t >= cycle+s {
			break
		}
		p.fIn[t+1] = st
	}
	p.ctr.AssignWork += p.repairReverse(cycle + s)
}

// Free implements query.Module.
func (p *PairModule) Free(op, cycle, id int) {
	p.ctr.FreeCalls++
	p.free(op, cycle, id)
}

func (p *PairModule) free(op, cycle, id int) {
	p.issuedAt[cycle] = removeInst(p.issuedAt[cycle], id)
	if a := cycle + p.span(op); a < len(p.anchored) {
		p.anchored[a] = removeInst(p.anchored[a], id)
	}
	delete(p.inst, id)
	st := p.fIn[cycle]
	for t := cycle; t < p.horizon; t++ {
		p.ctr.FreeWork++
		st = p.stepCycle(st, t)
		if st == p.fIn[t+1] {
			break
		}
		p.fIn[t+1] = st
	}
	p.ctr.FreeWork += p.repairReverse(cycle + p.span(op))
}

// removeInst deletes instance id in place (order-preserving), keeping
// the slice's capacity for reuse instead of reallocating.
func removeInst(ins []pairInst, id int) []pairInst {
	for i, in := range ins {
		if in.id == id {
			return append(ins[:i], ins[i+1:]...)
		}
	}
	return ins
}

// AssignFree implements query.Module. Finding the conflicting instances
// is not a state-machine operation — the paper notes that backtracking
// "appears to be more difficult" for automata — so it falls back to
// explicit reservation-table overlap tests against every scheduled
// instance. All eviction work (the frees and the re-insert) is charged
// to AssignFreeWork, matching the reduced backends.
func (p *PairModule) AssignFree(op, cycle, id int) []int {
	p.ctr.AssignFreeCalls++
	evicted := p.evictScratch[:0]
	for otherID, pl := range p.inst {
		p.ctr.AssignFreeWork++
		if otherID == id {
			continue
		}
		if tablesOverlap(p.e.Ops[op].Table, cycle, p.e.Ops[pl.op].Table, pl.cycle) {
			evicted = append(evicted, otherID)
		}
	}
	// Map iteration order is not deterministic; the module's outputs must
	// be (they feed byte-identical serving responses), so fix the order.
	sort.Ints(evicted)
	wa, wf := p.ctr.AssignWork, p.ctr.FreeWork
	for _, ev := range evicted {
		pl := p.inst[ev]
		p.free(pl.op, pl.cycle, ev)
	}
	p.assign(op, cycle, id)
	p.ctr.AssignFreeWork += (p.ctr.AssignWork - wa) + (p.ctr.FreeWork - wf)
	p.ctr.AssignWork, p.ctr.FreeWork = wa, wf
	p.evictScratch = evicted
	p.ctr.Unscheduled += int64(len(evicted))
	if len(evicted) > 0 {
		p.ctr.AssignFreeEvicting++
	}
	return evicted
}

func tablesOverlap(a resmodel.Table, ta int, b resmodel.Table, tb int) bool {
	for _, ua := range a.Uses {
		for _, ub := range b.Uses {
			if ua.Resource == ub.Resource && ta+ua.Cycle == tb+ub.Cycle {
				return true
			}
		}
	}
	return false
}

// CheckWithAlt implements query.Module.
func (p *PairModule) CheckWithAlt(origOp, cycle int) (int, bool) {
	p.ctr.CheckWithAltCalls++
	for _, op := range p.e.AltGroup[origOp] {
		if p.Check(op, cycle) {
			return op, true
		}
	}
	return -1, false
}

// FirstFree implements query.RangeQuerier with the naive scan: the FSA's
// per-cycle probe is already a handful of table lookups, so there is no
// summary structure to skip ahead with. FirstFreeCycles is charged with
// query.RangeProbes — the naive-equivalent candidate count — so the
// paper's work metric stays representation-invariant.
func (p *PairModule) FirstFree(op, lo, hi int) (int, bool) {
	p.ctr.FirstFreeCalls++
	cycle, ok := p.firstFree(op, lo, hi)
	p.ctr.FirstFreeCycles += query.RangeProbes(lo, hi, cycle, ok)
	return cycle, ok
}

func (p *PairModule) firstFree(op, lo, hi int) (int, bool) {
	if lo < 0 {
		panic(fmt.Sprintf("automaton: FirstFree with negative start %d on a linear schedule", lo))
	}
	for t := lo; t <= hi; t++ {
		ok, work := p.probe(op, t)
		p.ctr.FirstFreeWork += work
		if ok {
			return t, true
		}
	}
	return 0, false
}

// FirstFreeWithAlt implements query.RangeQuerier. The scan order is the
// naive one — cycles outermost, the alternative group innermost — so the
// (cycle, alternative) tie-break is identical to CheckWithAlt-per-cycle
// and to the reduced backends, keeping schedules byte-identical.
func (p *PairModule) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	if origOp < 0 || origOp >= len(p.e.AltGroup) {
		panic(fmt.Sprintf("automaton: FirstFreeWithAlt: original op index %d out of range", origOp))
	}
	if lo < 0 {
		panic(fmt.Sprintf("automaton: FirstFreeWithAlt with negative start %d on a linear schedule", lo))
	}
	p.ctr.FirstFreeWithAltCalls++
	group := p.e.AltGroup[origOp]
	op, cycle, altIdx, ok := p.firstFreeAlt(group, lo, hi)
	p.ctr.FirstFreeCycles += query.RangeProbesAlt(lo, hi, cycle, altIdx, len(group), ok)
	return op, cycle, ok
}

func (p *PairModule) firstFreeAlt(group []int, lo, hi int) (op, cycle, altIdx int, found bool) {
	for t := lo; t <= hi; t++ {
		for ai, cand := range group {
			ok, work := p.probe(cand, t)
			p.ctr.FirstFreeWork += work
			if ok {
				return cand, t, ai, true
			}
		}
	}
	return -1, 0, 0, false
}

// Counters implements query.Module.
func (p *PairModule) Counters() *query.Counters { return &p.ctr }

// Reset implements query.Module in place: the automata are immutable and
// shared, and every per-schedule slice keeps its capacity, so arena
// reuse across loops allocates nothing in steady state.
func (p *PairModule) Reset() {
	for t := range p.issuedAt {
		p.issuedAt[t] = p.issuedAt[t][:0]
	}
	for a := range p.anchored {
		p.anchored[a] = p.anchored[a][:0]
	}
	for i := range p.fIn {
		p.fIn[i] = 0
	}
	for i := range p.rIn {
		p.rIn[i] = 0
	}
	clear(p.inst)
	p.ctr.Reset()
	if p.horizon < 32 {
		p.growTo(32)
	}
}

// AltGroupOf exposes alternative groups for schedulers.
func (p *PairModule) AltGroupOf(origOp int) []int { return p.e.AltGroup[origOp] }

// StatesStored reports the per-cycle automaton states currently kept —
// the memory overhead of the unrestricted model ("two states per
// operation must be stored"; here two states per schedule cycle).
func (p *PairModule) StatesStored() int { return len(p.fIn) + len(p.rIn) }

var _ query.Module = (*PairModule)(nil)
