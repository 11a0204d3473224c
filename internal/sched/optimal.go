package sched

import (
	"math"

	"repro/internal/ddg"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// This file implements sched.Optimal: an exact branch-and-bound modulo
// scheduler in the implicit-enumeration family the combinatorial
// scheduling literature surveys (PAPERS.md), over the same contention
// query API the heuristic IMS uses.
//
// The run is seeded with one IMS pass. When the heuristic already
// achieves MII the loop is proven optimal with zero search nodes —
// the common case on the paper's corpus. Otherwise the exact search
// decides each II in [MII, II_ims) in turn: finding a schedule after
// proving every smaller II infeasible is a proof of optimality, and
// proving the whole interval infeasible promotes the IMS schedule
// itself to proven-optimal. Only a budget truncation leaves the gap
// open, in which case the seed schedule is returned as the fallback.
//
// Within one II the search branches on *residues*: each node's issue
// cycle decomposes as time = II*stage + residue with residue in
// [0, II). The residue together with the chosen alternative fixes the
// node's Modulo Reservation Table footprint, so resource feasibility is
// maintained incrementally on a query module (Check/Assign on descent,
// Free on backtrack). Dependence feasibility over the unassigned stages
// is decided exactly: with W the all-pairs longest dependence path
// (edge weight Delay - II*Dist), a residue assignment extends to a full
// schedule iff the derived stage constraints
//
//	stage(q) - stage(p) >= ceil((W[p][q] + r_p - r_q) / II)
//
// over the assigned nodes admit a solution, i.e. iff their longest-path
// closure D has no positive diagonal. Eliminating the *unassigned*
// nodes is exact because no congruence constrains them — their
// variables are projected through W. D is maintained incrementally (one
// O(k^2) pass per placement with an undo log), so the search backtracks
// in time proportional to what the placement changed. At a leaf,
// stage(q) = max(0, max_p D[p][q]) reconstructs the canonical earliest
// schedule.
//
// The branch order is deterministic: nodes statically ordered by
// height (descending, ties by lower index — the priority IMS pops),
// candidates per node by ascending residue, alternatives in group
// order, exactly the sequence a naive CheckWithAlt loop probes. The
// range-query scan (Module.FirstFreeWithAlt) skips empty residues
// without changing that sequence. The first node is pinned to residue
// 0: rotating a modulo schedule by one cycle is an MRT symmetry, so the
// restriction loses no solutions and also preserves infeasibility
// proofs.
//
// Each II attempt is decomposed into frontier tasks: the search expands
// to a fixed depth (optSpawnDepth), collects the surviving prefixes as
// tasks, and runs each task as a deterministic DFS under an equal share
// of the remaining node budget. One dfs does both passes; the frontier
// field of its state switches it between collecting and searching.
// Tasks run in index order and the first one that finds a schedule
// supplies the witness, so the schedule, the node count and the outcome
// are a pure function of the loop and the budget.
const (
	// DefaultOptimalNodes is the default per-loop search-node budget,
	// spent across all II attempts. On the paper's 200-loop corpus the
	// proven-optimal rate is flat from 2^14 through 2^18 nodes (the
	// open-gap loops are hard at any budget), so the default sits at a
	// modest 2^16.
	DefaultOptimalNodes = 1 << 16

	// optSpawnDepth is the frontier depth of the task decomposition.
	optSpawnDepth = 2

	// optMinTaskNodes floors the per-task node budget so late tasks of
	// a mostly-spent loop still make progress; the bounded overshoot
	// (tasks * floor) is deterministic.
	optMinTaskNodes = 256

	// optNegInf marks "no path" in the W and D matrices; quarter-range
	// so guarded additions cannot wrap.
	optNegInf = math.MinInt64 / 4
)

// OptimalConfig controls the exact scheduler.
type OptimalConfig struct {
	// MaxNodes is the per-loop search-node budget across all II
	// attempts (<= 0 selects DefaultOptimalNodes). The budget is
	// deliberately the only resource limit — a wall-clock budget would
	// make outcomes timing-dependent.
	MaxNodes int64
	// MaxII caps the initiation-interval search; 0 derives the same
	// safe cap IMS uses.
	MaxII int
	// IMS configures the heuristic seed pass, whose schedule doubles as
	// the fallback when MaxNodes is exhausted with the optimality gap
	// still open.
	IMS Config
}

// DefaultOptimalConfig returns the default exact-search configuration.
func DefaultOptimalConfig() OptimalConfig {
	return OptimalConfig{MaxNodes: DefaultOptimalNodes, IMS: DefaultConfig()}
}

// OptimalResult is the outcome of an exact scheduling run. Exactly one
// of Proven and Fallback is set.
type OptimalResult struct {
	// Result holds the schedule and MII fields. When the exact search
	// supplied the schedule, Attempts counts its II attempts; when the
	// IMS seed supplied it (proven via infeasibility of every lower II,
	// or unproven fallback), every Result field describes the IMS run.
	Result
	// Proven reports that II is optimal: every feasible II below it was
	// ruled out, either by the exact search or because II == MII.
	Proven bool
	// Fallback reports that the node budget ran out (or the II cap was
	// hit) with the gap still open, and Result is the unproven IMS
	// seed.
	Fallback bool
	// Nodes counts exact-search nodes expanded across all II attempts
	// (preserved on fallback).
	Nodes int64
	// InfeasibleIIs counts IIs proven infeasible before the outcome.
	InfeasibleIIs int
	// Tasks counts frontier tasks spawned across all II attempts.
	Tasks int
}

// Optimal exactly modulo-schedules the loop g for machine m, issuing
// all contention queries through modules built by factory (the same
// contract as Schedule). See OptimalConfig for budget and fallback
// semantics.
func Optimal(g *ddg.Graph, m *resmodel.Machine, factory ModuleFactory, cfg OptimalConfig) OptimalResult {
	var sc optScratch
	var res OptimalResult
	optimalInto(&res, g, m, factory, cfg, &sc)
	observeOptimal(&res)
	return res
}

// OptimalBatch runs Optimal over every loop through per-worker arenas
// (one arena per pool worker, modules reused across the loops it
// steals). Results are index-ordered and byte-identical at every
// worker count.
func OptimalBatch(loops []*ddg.Graph, m *resmodel.Machine, factory ModuleFactory, cfg OptimalConfig, workers int) []OptimalResult {
	out := make([]OptimalResult, len(loops))
	parallel.ForEachState(len(loops), parallel.Workers(workers),
		func() *Arena { return NewArena(factory) },
		func(a *Arena, i int) { a.OptimalInto(&out[i], loops[i], m, cfg) })
	return out
}

// optScratch holds every reusable buffer one Optimal call needs; the
// zero value is ready. It embeds a schedScratch for the MII
// computation, the height-based order and the IMS fallback.
type optScratch struct {
	sched schedScratch
	run   optRun
	st    optState
	tasks []optTask
	sol   optSolution
	ims   Result
}

// optRun is the per-II description the search state reads.
type optRun struct {
	g      *ddg.Graph
	n      int
	ii     int
	order  []int   // position -> node, height desc, ties by index
	w      []int64 // n*n all-pairs longest dependence path at this II
	altOff []int32 // node -> [altOff[v], altOff[v+1]) into altBuf
	altBuf []int   // schedulable expanded alts, group order
	// perTask is the node budget of each frontier task this II.
	perTask int64
}

func (r *optRun) altsOf(v int) []int { return r.altBuf[r.altOff[v]:r.altOff[v+1]] }

// cWeight is the stage-constraint weight of assigned position p -> q:
// stage(q) - stage(p) >= ceil((W[vp][vq] + r_p - r_q) / II).
func (r *optRun) cWeight(vp, vq, rp, rq int) int64 {
	w := r.w[vp*r.n+vq]
	if w == optNegInf {
		return optNegInf
	}
	return ceilDiv(w+int64(rp)-int64(rq), int64(r.ii))
}

// ceilDiv is ceil(a/b) for b > 0 under Go's truncating division.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// optSolution is a captured schedule in node order.
type optSolution struct {
	time []int
	alt  []int
}

func (s *optSolution) copyFrom(src *optSolution) {
	s.time = append(s.time[:0], src.time...)
	s.alt = append(s.alt[:0], src.alt...)
}

// dUndo is one overwritten D entry; the log replays backwards on
// backtrack.
type dUndo struct {
	idx int32
	old int64
}

// optCand is one branching decision: place the position's node at this
// residue with this expanded alternative.
type optCand struct {
	cycle int
	alt   int
}

// optTask is one frontier prefix.
type optTask struct {
	path  [optSpawnDepth]optCand
	depth int
}

type searchStatus int8

const (
	searchExhausted searchStatus = iota // subtree fully enumerated, no schedule
	searchFound                         // schedule captured
	searchTruncated                     // node budget hit
)

// optState is one search's mutable state: the module holding the
// partial MRT, the incremental stage closure D with its undo log, and
// the residue/alternative choices along the current path. Steady-state
// search allocates nothing (the undo log amortizes).
type optState struct {
	run    *optRun
	mod    query.Module
	d      []int64 // n*n closure over assigned positions
	resid  []int   // position -> residue on the current path
	altSel []int   // position -> expanded alt on the current path
	row    []int64 // addNode scratch: direct weights new -> earlier
	col    []int64 // addNode scratch: direct weights earlier -> new
	log    []dUndo
	// frontier, when set, collects the prefixes dfs reaches at
	// optSpawnDepth (the expansion pass of searchII).
	frontier *[]optTask
	nodes    int64
	limit    int64
	sol      optSolution
	found    bool
}

// attach points the state at a run and module, growing buffers as
// needed. Stale D entries need no clearing: every read is of a pair of
// positions on the active path, which addNode rewrote on this descent.
func (s *optState) attach(run *optRun, mod query.Module) {
	s.run = run
	s.mod = mod
	n := run.n
	s.d = growInt64(s.d, n*n)
	s.resid = intsZero(s.resid, n)
	s.altSel = intsZero(s.altSel, n)
	s.row = growInt64(s.row, n)
	s.col = growInt64(s.col, n)
	s.log = s.log[:0]
}

// addNode extends the stage-feasibility closure with position k placed
// at residue rk, relaxing earlier pairs through it and logging every
// overwrite. It reports infeasibility (a positive cycle) and the undo
// mark for backtracking. One relaxation pass is exact: D[k][k] <= 0
// means no longest path needs k twice.
func (s *optState) addNode(k, rk int) (mark int, ok bool) {
	mark = len(s.log)
	r := s.run
	n := r.n
	vk := r.order[k]
	d := s.d
	row, col := s.row, s.col
	for q := 0; q < k; q++ {
		vq := r.order[q]
		row[q] = r.cWeight(vk, vq, rk, s.resid[q])
		col[q] = r.cWeight(vq, vk, s.resid[q], rk)
	}
	// Close the new row and column through the already-closed prefix: a
	// longest path leaving k starts with a direct edge, one entering k
	// ends with one.
	for q := 0; q < k; q++ {
		best := row[q]
		for p := 0; p < k; p++ {
			if rp := row[p]; rp != optNegInf {
				if dpq := d[p*n+q]; dpq != optNegInf && rp+dpq > best {
					best = rp + dpq
				}
			}
		}
		d[k*n+q] = best
		best = col[q]
		for p := 0; p < k; p++ {
			if cp := col[p]; cp != optNegInf {
				if dqp := d[q*n+p]; dqp != optNegInf && dqp+cp > best {
					best = dqp + cp
				}
			}
		}
		d[q*n+k] = best
	}
	// The tightest cycle through k.
	dkk := r.cWeight(vk, vk, rk, rk)
	for q := 0; q < k; q++ {
		if a, b := d[k*n+q], d[q*n+k]; a != optNegInf && b != optNegInf && a+b > dkk {
			dkk = a + b
		}
	}
	d[k*n+k] = dkk
	if dkk > 0 {
		return mark, false
	}
	for p := 0; p < k; p++ {
		dpk := d[p*n+k]
		if dpk == optNegInf {
			continue
		}
		for q := 0; q < k; q++ {
			dkq := d[k*n+q]
			if dkq == optNegInf {
				continue
			}
			if v := dpk + dkq; v > d[p*n+q] {
				s.log = append(s.log, dUndo{int32(p*n + q), d[p*n+q]})
				d[p*n+q] = v
				if p == q && v > 0 {
					return mark, false
				}
			}
		}
	}
	return mark, true
}

// undoNode rolls the closure back to the given mark.
func (s *optState) undoNode(mark int) {
	for i := len(s.log) - 1; i >= mark; i-- {
		u := s.log[i]
		s.d[u.idx] = u.old
	}
	s.log = s.log[:mark]
}

// capture reconstructs the earliest schedule of a feasible leaf:
// stage(q) = max(0, max_p D[p][q]) satisfies every closed stage
// constraint (the closure makes the pairwise check sufficient).
func (s *optState) capture() {
	r := s.run
	n := r.n
	s.sol.time = intsZero(s.sol.time, n)
	s.sol.alt = intsZero(s.sol.alt, n)
	d := s.d
	for q := 0; q < n; q++ {
		var sq int64
		for p := 0; p < n; p++ {
			if v := d[p*n+q]; v != optNegInf && v > sq {
				sq = v
			}
		}
		v := r.order[q]
		s.sol.time[v] = int(sq)*r.ii + s.resid[q]
		s.sol.alt[v] = s.altSel[q]
	}
	s.found = true
}

// nextFreeCycle advances to the first cycle in [t, hi] where some
// schedulable alternative of position k's node is contention-free,
// returning the cycle and the index (within the node's filtered alt
// list) of the first free alternative.
func (s *optState) nextFreeCycle(v, t, hi int) (cycle, firstAlt int, ok bool) {
	r := s.run
	op, cyc, ok := s.mod.FirstFreeWithAlt(r.g.Nodes[v].Op, t, hi)
	if !ok {
		return 0, 0, false
	}
	for ai, a := range r.altsOf(v) {
		if a == op {
			return cyc, ai, true
		}
	}
	panic("sched: range scan returned an unschedulable alternative")
}

// dfs enumerates placements of position k onward in canonical order.
// Every call is one counted search node, except that while frontier is
// set a call at the frontier depth emits the current prefix as a task
// instead of searching it. Frontier calls are not counted here — the
// task's own dfs counts them — so the budget sees every node exactly
// once whichever pass reaches it.
func (s *optState) dfs(k int) searchStatus {
	r := s.run
	if s.frontier != nil && k == optSpawnDepth && k < r.n {
		t := optTask{depth: k}
		for j := 0; j < k; j++ {
			t.path[j] = optCand{cycle: s.resid[j], alt: s.altSel[j]}
		}
		*s.frontier = append(*s.frontier, t)
		return searchExhausted
	}
	s.nodes++
	if s.nodes > s.limit {
		return searchTruncated
	}
	if k == r.n {
		s.capture()
		return searchFound
	}
	vk := r.order[k]
	alts := r.altsOf(vk)
	hi := r.ii - 1
	if k == 0 {
		hi = 0 // MRT rotation symmetry: pin the first residue
	}
	for t := 0; t <= hi; {
		cyc, first, ok := s.nextFreeCycle(vk, t, hi)
		if !ok {
			break
		}
		for ai := first; ai < len(alts); ai++ {
			a := alts[ai]
			if ai > first && !s.mod.Check(a, cyc) {
				continue
			}
			s.mod.Assign(a, cyc, vk)
			s.resid[k] = cyc
			s.altSel[k] = a
			mark, feasible := s.addNode(k, cyc)
			sub := searchExhausted
			if feasible {
				sub = s.dfs(k + 1)
			}
			s.undoNode(mark)
			s.mod.Free(a, cyc, vk)
			if sub != searchExhausted {
				return sub
			}
		}
		t = cyc + 1
	}
	return searchExhausted
}

// runTask replays a frontier prefix (guaranteed feasible — expansion
// pruned it) and searches its subtree under the per-task budget,
// returning the outcome and the nodes it expanded.
func (s *optState) runTask(t *optTask) (status searchStatus, nodes int64) {
	r := s.run
	var marks [optSpawnDepth]int
	for j := 0; j < t.depth; j++ {
		c := t.path[j]
		v := r.order[j]
		s.mod.Assign(c.alt, c.cycle, v)
		s.resid[j] = c.cycle
		s.altSel[j] = c.alt
		mark, feasible := s.addNode(j, c.cycle)
		if !feasible {
			panic("sched: frontier prefix infeasible on replay")
		}
		marks[j] = mark
	}
	s.nodes = 0
	s.limit = r.perTask
	s.found = false
	status = s.dfs(t.depth)
	for j := t.depth - 1; j >= 0; j-- {
		c := t.path[j]
		s.undoNode(marks[j])
		s.mod.Free(c.alt, c.cycle, r.order[j])
	}
	return status, s.nodes
}

// optSearch is one Optimal call's driver.
type optSearch struct {
	g        *ddg.Graph
	cfg      OptimalConfig
	moduleOf ModuleFactory // per-II search and IMS seed modules (arena-cached)
	sc       *optScratch
}

// searchII decides one II: found (with the canonical witness in
// sc.sol), proven infeasible, or truncated by the budget. used is the
// deterministic node count charged against the loop budget.
func (o *optSearch) searchII(ii int, budget int64) (found, truncated bool, used int64, ntasks int) {
	sc := o.sc
	r := &sc.run
	g := o.g
	n := len(g.Nodes)
	r.g, r.n, r.ii = g, n, ii

	mod := o.moduleOf(ii)
	// Filter each node's alternative group down to the alternatives
	// schedulable at this II; a node with none proves the II infeasible
	// outright (the guard IMS applies per placement).
	r.altOff = growInt32(r.altOff, n+1)
	r.altBuf = r.altBuf[:0]
	r.altOff[0] = 0
	for v := 0; v < n; v++ {
		for _, op := range mod.AltGroupOf(g.Nodes[v].Op) {
			if mod.Schedulable(op) {
				r.altBuf = append(r.altBuf, op)
			}
		}
		if int(r.altOff[v]) == len(r.altBuf) {
			return false, false, 0, 0
		}
		r.altOff[v+1] = int32(len(r.altBuf))
	}

	// Static branch order: height descending, ties by lower node index
	// — the same priority IMS pops.
	ss := &sc.sched
	ss.height = intsZero(ss.height, n)
	heightsInto(ss.height, ii, &ss.succs)
	r.order = intsZero(r.order, n)
	for i := range r.order {
		r.order[i] = i
	}
	orderByHeight(r.order, ss.height)

	r.w = growInt64(r.w, n*n)
	buildW(r.w, g, ii)

	st := &sc.st
	st.attach(r, mod)
	st.nodes = 0
	st.limit = budget
	st.found = false
	sc.tasks = sc.tasks[:0]
	st.frontier = &sc.tasks
	status := st.dfs(0)
	st.frontier = nil
	switch status {
	case searchFound:
		sc.sol.copyFrom(&st.sol)
		return true, false, st.nodes, 0
	case searchTruncated:
		return false, true, st.nodes, 0
	}
	used = st.nodes
	tasks := sc.tasks
	ntasks = len(tasks)
	if ntasks == 0 {
		return false, false, used, 0 // every prefix pruned: II infeasible
	}
	per := (budget - used) / int64(ntasks)
	if per < optMinTaskNodes {
		per = optMinTaskNodes
	}
	r.perTask = per

	for i := range tasks {
		status, nodes := st.runTask(&tasks[i])
		used += nodes
		switch status {
		case searchFound:
			sc.sol.copyFrom(&st.sol)
			return true, false, used, ntasks
		case searchTruncated:
			truncated = true
		}
	}
	return false, truncated, used, ntasks
}

// optimalInto is the one exact-scheduling code path: Optimal runs it
// with a fresh scratch, an Arena with its per-worker one. moduleOf
// supplies the module for each II attempt (and the IMS fallback).
func optimalInto(res *OptimalResult, g *ddg.Graph, m *resmodel.Machine, moduleOf ModuleFactory, cfg OptimalConfig, sc *optScratch) {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = DefaultOptimalNodes
	}
	n := len(g.Nodes)
	resetResult(&res.Result, n)
	res.Proven, res.Fallback = false, false
	res.Nodes, res.InfeasibleIIs, res.Tasks = 0, 0, 0
	ss := &sc.sched
	// Seed with the IMS heuristic on the same modules: its schedule is
	// the fallback, and when it achieves MII (or the search below proves
	// every smaller II infeasible) it is itself the proven optimum. scheduleInto computes the MII fields as a side effect.
	scheduleInto(&sc.ims, g, m, moduleOf, cfg.IMS, ss)
	res.MII, res.ResMII, res.RecMII = sc.ims.MII, sc.ims.ResMII, sc.ims.RecMII
	if sc.ims.OK && sc.ims.II == sc.ims.MII {
		copyResultInto(&res.Result, &sc.ims)
		res.Proven = true
		return
	}
	// hi is the last II the exact search must decide: one below the
	// seed's II when the seed succeeded, the full cap otherwise.
	hi := cfg.MaxII
	if hi <= 0 {
		hi = res.MII + totalDelay(g) + n + 8
	}
	if sc.ims.OK && sc.ims.II-1 < hi {
		hi = sc.ims.II - 1
	}
	ss.succs.build(g, false)
	o := &optSearch{g: g, cfg: cfg, moduleOf: moduleOf, sc: sc}
	for ii := res.MII; ii <= hi; ii++ {
		res.Attempts++
		found, truncated, used, ntasks := o.searchII(ii, cfg.MaxNodes-res.Nodes)
		res.Nodes += used
		res.Tasks += ntasks
		if found {
			res.OK, res.II, res.Proven = true, ii, true
			copy(res.Time, sc.sol.time)
			copy(res.Alt, sc.sol.alt)
			return
		}
		if truncated || res.Nodes >= cfg.MaxNodes {
			// The gap is open: deterministic fallback to the seed.
			// Result now describes the IMS run; the exact search's
			// accounting survives in Nodes/InfeasibleIIs/Tasks.
			copyResultInto(&res.Result, &sc.ims)
			res.Fallback = true
			return
		}
		res.InfeasibleIIs++
	}
	// Every II below the seed's proven infeasible: the seed is optimal.
	// (Without a successful seed — or with cfg.MaxII cutting the search
	// short of it — nothing is proven and the failed seed is returned.)
	copyResultInto(&res.Result, &sc.ims)
	if sc.ims.OK && hi == sc.ims.II-1 {
		res.Proven = true
	} else {
		res.Fallback = true
	}
}

// copyResultInto copies src into dst, reusing dst's slice capacity.
func copyResultInto(dst, src *Result) {
	t, a := dst.Time[:0], dst.Alt[:0]
	ad, cd, sw := dst.AttemptDecisions[:0], dst.ChecksPerDecision[:0], dst.ScanWidths[:0]
	*dst = *src
	dst.Time = append(t, src.Time...)
	dst.Alt = append(a, src.Alt...)
	dst.AttemptDecisions = append(ad, src.AttemptDecisions...)
	dst.ChecksPerDecision = append(cd, src.ChecksPerDecision...)
	dst.ScanWidths = append(sw, src.ScanWidths...)
}

// orderByHeight stably sorts order (initially ascending indices) by
// descending height; stability keeps ties in index order. Insertion
// sort: allocation-free and n is small.
func orderByHeight(order, height []int) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		h := height[v]
		j := i - 1
		for j >= 0 && h > height[order[j]] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// buildW fills w with the all-pairs longest dependence path at this II
// (edge weight Delay - II*Dist, parallel edges folded by max), the
// Floyd-Warshall over guarded additions ddg uses for feasibility.
func buildW(w []int64, g *ddg.Graph, ii int) {
	n := len(g.Nodes)
	w = w[:n*n]
	for i := range w {
		w[i] = optNegInf
	}
	for _, e := range g.Edges {
		wt := int64(e.Delay) - int64(ii)*int64(e.Dist)
		if wt > w[e.From*n+e.To] {
			w[e.From*n+e.To] = wt
		}
	}
	for k := 0; k < n; k++ {
		kn := k * n
		for i := 0; i < n; i++ {
			ik := w[i*n+k]
			if ik == optNegInf {
				continue
			}
			row := w[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if kj := w[kn+j]; kj != optNegInf && ik+kj > row[j] {
					row[j] = ik + kj
				}
			}
		}
	}
}

func growInt64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}
