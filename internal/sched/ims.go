// Package sched implements the schedulers of Section 8 of Eichenberger &
// Davidson (PLDI 1996): Rau's Iterative Modulo Scheduler (MICRO-27, 1994)
// for software-pipelined loops, and an acyclic list scheduler for
// straight-line code.
//
// The Iterative Modulo Scheduler is the paper's "state-of-the-art
// scheduler": it schedules operations in priority order (height-based, so
// critical-path operations first, *not* in cycle order), reverses prior
// scheduling decisions when resource contentions or dependence violations
// occur, and retries with a larger initiation interval when a budget of
// scheduling decisions (BudgetRatio x N) is exhausted. It therefore
// satisfies the unrestricted scheduling model: the contention query module
// must support arbitrary placement order and unscheduling, which is
// exactly what the paper's reduced reservation tables provide and what
// finite-state-automaton approaches struggle with.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// ModuleFactory builds a contention query module for a given initiation
// interval (ii > 0 for a Modulo Reservation Table). The factory fixes the
// machine description in use — original or reduced, discrete or bitvector
// — which is how the paper compares representations under an identical
// scheduler.
type ModuleFactory func(ii int) query.Module

// Config controls the Iterative Modulo Scheduler.
type Config struct {
	// BudgetRatio bounds scheduling decisions per attempt at
	// BudgetRatio*N (the paper uses 6N, and reports 2N as an ablation).
	BudgetRatio int
	// MaxII caps the initiation-interval search; 0 derives a safe cap.
	MaxII int
}

// DefaultConfig returns the paper's configuration (budget 6N).
func DefaultConfig() Config { return Config{BudgetRatio: 6} }

// Result is a modulo schedule for one loop.
type Result struct {
	OK     bool
	II     int
	MII    int
	ResMII int
	RecMII int
	// Time is the issue cycle of each node (non-negative; the MRT column
	// is Time mod II).
	Time []int
	// Alt is the expanded-operation index actually placed for each node
	// (check-with-alt's choice).
	Alt []int
	// Attempts is the number of IIs tried (1 = scheduled at MII).
	Attempts int
	// Decisions counts scheduling decisions over all attempts; Reversed
	// counts decisions undone (by resource eviction or dependence
	// violation); ResourceEvictions and DepEvictions split Reversed by
	// cause. BudgetExceeded counts attempts abandoned on budget.
	Decisions         int
	Reversed          int
	ResourceEvictions int
	DepEvictions      int
	BudgetExceeded    int
	// AttemptDecisions records the number of scheduling decisions made in
	// each II attempt (Table 5 averages decisions/op over loops AND
	// attempts).
	AttemptDecisions []int
	// ChecksPerDecision records, for every scheduling decision, how many
	// check queries the time-slot search issued (Section 8: "on average,
	// the scheduler issues 4.74 check queries per scheduling decision").
	// The range-query scan charges the per-cycle probes the equivalent
	// naive loop would have issued, so the statistic keeps the paper's
	// per-check meaning.
	ChecksPerDecision []int
	// ScanWidths records, for every scheduling decision, how many
	// candidate cycles the time-slot search covered: slot-estart+1 when a
	// slot was found, the full II-wide window otherwise. A width above 1
	// is a window the bit-parallel range scan rules out in fewer passes
	// than the naive per-cycle probe.
	ScanWidths []int
}

// Schedule modulo-schedules the loop g for machine m, issuing all
// contention queries through modules built by factory. The factory's
// modules must be Modulo Reservation Tables over a description whose
// alternative groups mirror m's operations (the original expansion or any
// reduction of it).
func Schedule(g *ddg.Graph, m *resmodel.Machine, factory ModuleFactory, cfg Config) Result {
	var sc schedScratch
	var res Result
	scheduleInto(&res, g, m, factory, cfg, &sc)
	observeSchedule(&res)
	return res
}

// edgeCSR is an adjacency list in compressed-sparse-row form over
// reusable buffers: group v's edges are edges[off[v]:off[v+1]], in
// global edge order within each group — exactly the per-node order
// Graph.Preds/Graph.Succs produce, so switching the scheduler onto the
// CSR changes no iteration order anywhere.
type edgeCSR struct {
	off   []int32
	edges []ddg.Edge
}

func (c *edgeCSR) at(v int) []ddg.Edge { return c.edges[c.off[v]:c.off[v+1]] }

// build groups g.Edges by destination (byTo) or source node with a
// counting sort; after the fill pass off[v] holds group v's end, which
// is off[v+1]'s start, so one descending shift restores the offsets.
func (c *edgeCSR) build(g *ddg.Graph, byTo bool) {
	n := len(g.Nodes)
	if cap(c.off) < n+1 {
		c.off = make([]int32, n+1)
	} else {
		c.off = c.off[:n+1]
	}
	if cap(c.edges) < len(g.Edges) {
		c.edges = make([]ddg.Edge, len(g.Edges))
	} else {
		c.edges = c.edges[:len(g.Edges)]
	}
	off := c.off
	for i := range off {
		off[i] = 0
	}
	for _, e := range g.Edges {
		k := e.From
		if byTo {
			k = e.To
		}
		off[k+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	for _, e := range g.Edges {
		k := e.From
		if byTo {
			k = e.To
		}
		c.edges[off[k]] = e
		off[k]++
	}
	for v := n; v >= 1; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
}

// schedScratch holds every buffer one Schedule call needs, so an arena
// (or any caller that keeps a scratch per worker) schedules loop after
// loop without allocating once the buffers have grown to the corpus's
// largest shape. The zero value is ready to use.
type schedScratch struct {
	st           state
	mii          ddg.MIIScratch
	usage        ddg.UsageCounter // boxed MachineUsage, cached per machine
	usageM       *resmodel.Machine
	preds, succs edgeCSR
	height       []int
	time         []int
	alt          []int
	prevTime     []int
	everSched    []bool
	inQueue      []bool
	queue        []int
}

func intsZero(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

func boolsZero(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// resetResult reuses res's slices (grown capacity retained) and zeroes
// everything else, so a Result cycled through ScheduleInto behaves like
// a fresh one.
func resetResult(res *Result, n int) {
	*res = Result{
		Time:              intsZero(res.Time, n),
		Alt:               intsZero(res.Alt, n),
		AttemptDecisions:  res.AttemptDecisions[:0],
		ChecksPerDecision: res.ChecksPerDecision[:0],
		ScanWidths:        res.ScanWidths[:0],
	}
}

// scheduleInto is the one scheduling code path: Schedule runs it with a
// fresh scratch, an Arena with its per-worker one. moduleOf supplies
// the query module for each II attempt — the raw factory on the fresh
// path, the arena's reset-and-reuse cache otherwise.
func scheduleInto(res *Result, g *ddg.Graph, m *resmodel.Machine, moduleOf ModuleFactory, cfg Config, sc *schedScratch) {
	if cfg.BudgetRatio <= 0 {
		cfg.BudgetRatio = 6
	}
	n := len(g.Nodes)
	resetResult(res, n)
	if sc.usageM != m {
		sc.usage = ddg.MachineUsage{M: m}
		sc.usageM = m
	}
	res.ResMII = sc.mii.ResMII(g, sc.usage)
	res.RecMII = sc.mii.RecMII(g)
	res.MII = res.ResMII
	if res.RecMII > res.MII {
		res.MII = res.RecMII
	}
	maxII := cfg.MaxII
	if maxII == 0 {
		maxII = res.MII + totalDelay(g) + n + 8
	}
	sc.preds.build(g, true)
	sc.succs.build(g, false)
	s := &sc.st
	s.g, s.preds, s.succs, s.cfg, s.res, s.sc = g, &sc.preds, &sc.succs, cfg, res, sc
	for ii := res.MII; ii <= maxII; ii++ {
		res.Attempts++
		d0 := res.Decisions
		ok := s.attempt(ii, moduleOf(ii))
		res.AttemptDecisions = append(res.AttemptDecisions, res.Decisions-d0)
		if ok {
			res.OK = true
			res.II = ii
			break
		}
	}
	s.res, s.mod = nil, nil // drop per-loop references
}

func totalDelay(g *ddg.Graph) int {
	t := 0
	for _, e := range g.Edges {
		if e.Delay > 0 {
			t += e.Delay
		}
	}
	return t
}

type state struct {
	g     *ddg.Graph
	preds *edgeCSR
	succs *edgeCSR
	cfg   Config
	res   *Result
	sc    *schedScratch

	ii        int
	mod       query.Module
	height    []int
	time      []int // -1 = unscheduled
	alt       []int
	prevTime  []int
	everSched []bool
	inQueue   []bool
	queue     []int // unscheduled nodes, managed as a sorted-extract set
}

// attempt runs one iterative-scheduling attempt at the given II.
func (s *state) attempt(ii int, mod query.Module) bool {
	g := s.g
	n := len(g.Nodes)
	s.ii, s.mod = ii, mod

	// Every operation must have at least one alternative that does not
	// fold onto itself at this II.
	for _, node := range g.Nodes {
		if _, ok := schedulableAlt(mod, node.Op); !ok {
			return false
		}
	}

	// All attempt-local vectors come out of the scratch; they are resized
	// (retaining capacity) and zeroed, which is exactly the state a fresh
	// make would produce.
	sc := s.sc
	sc.height = intsZero(sc.height, n)
	heightsInto(sc.height, ii, s.succs)
	sc.time = intsZero(sc.time, n)
	sc.alt = intsZero(sc.alt, n)
	sc.prevTime = intsZero(sc.prevTime, n)
	sc.everSched = boolsZero(sc.everSched, n)
	sc.inQueue = boolsZero(sc.inQueue, n)
	s.height, s.time, s.alt, s.prevTime = sc.height, sc.time, sc.alt, sc.prevTime
	s.everSched, s.inQueue = sc.everSched, sc.inQueue
	s.queue = sc.queue[:0]
	for v := 0; v < n; v++ {
		s.time[v] = -1
		s.push(v)
	}

	budget := s.cfg.BudgetRatio * n
	for len(s.queue) > 0 {
		if budget <= 0 {
			s.res.BudgetExceeded++
			s.sc.queue = s.queue[:0] // retain grown capacity
			return false
		}
		v := s.pop()
		ctr := mod.Counters()
		c0 := ctr.CheckCalls + ctr.FirstFreeCycles
		estart := s.earlyStart(v)
		timeSlot, altOp, found := s.findTimeSlot(v, estart, estart+ii-1)
		width := ii
		if found {
			width = timeSlot - estart + 1
		} else {
			// Forced placement (Rau): at estart the first time, otherwise
			// just after the previous placement.
			timeSlot = estart
			if s.everSched[v] && s.prevTime[v]+1 > timeSlot {
				timeSlot = s.prevTime[v] + 1
			}
			altOp, _ = schedulableAlt(mod, g.Nodes[v].Op)
		}
		s.place(v, timeSlot, altOp)
		budget--
		s.res.Decisions++
		s.res.ChecksPerDecision = append(s.res.ChecksPerDecision, int(ctr.CheckCalls+ctr.FirstFreeCycles-c0))
		s.res.ScanWidths = append(s.res.ScanWidths, width)
	}
	s.sc.queue = s.queue[:0] // retain grown capacity
	return true
}

// schedulableAlt returns the first alternative of origOp that is
// schedulable at the module's II.
func schedulableAlt(mod query.Module, origOp int) (int, bool) {
	// The module's CheckWithAlt iterates the alt group, but for forced
	// placement we need an alternative regardless of current contention;
	// probe via Schedulable on the group.
	for _, op := range mod.AltGroupOf(origOp) {
		if mod.Schedulable(op) {
			return op, true
		}
	}
	return -1, false
}

// push inserts v into the unscheduled set.
func (s *state) push(v int) {
	if !s.inQueue[v] {
		s.inQueue[v] = true
		s.queue = append(s.queue, v)
	}
}

// pop removes and returns the highest-priority unscheduled node: maximum
// height, ties broken by lower node index (deterministic).
func (s *state) pop() int {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		a, b := s.queue[i], s.queue[best]
		if s.height[a] > s.height[b] || (s.height[a] == s.height[b] && a < b) {
			best = i
		}
	}
	v := s.queue[best]
	s.queue[best] = s.queue[len(s.queue)-1]
	s.queue = s.queue[:len(s.queue)-1]
	s.inQueue[v] = false
	return v
}

// earlyStart computes the earliest legal issue time of v with respect to
// its currently scheduled predecessors (clamped at 0).
func (s *state) earlyStart(v int) int {
	estart := 0
	for _, e := range s.preds.at(v) {
		if e.From == v {
			continue // self-recurrences never constrain their own estart
		}
		if s.time[e.From] < 0 {
			continue
		}
		if t := s.time[e.From] + e.Delay - s.ii*e.Dist; t > estart {
			estart = t
		}
	}
	return estart
}

// findTimeSlot searches [minT, maxT] for the first contention-free slot
// for v or any of its alternatives with one range query, which answers
// exactly what a per-cycle CheckWithAlt loop would.
func (s *state) findTimeSlot(v, minT, maxT int) (int, int, bool) {
	op, t, ok := s.mod.FirstFreeWithAlt(s.g.Nodes[v].Op, minT, maxT)
	return t, op, ok
}

// place schedules v at time t using expanded op altOp, displacing
// resource-conflicting instances and dependence-violated neighbors.
func (s *state) place(v, t, altOp int) {
	evicted := s.mod.AssignFree(altOp, t, v)
	s.time[v] = t
	s.alt[v] = altOp
	s.prevTime[v] = t
	s.everSched[v] = true
	for _, id := range evicted {
		if id == v {
			continue
		}
		s.time[id] = -1
		s.push(id)
		s.res.Reversed++
		s.res.ResourceEvictions++
	}
	// Displace scheduled neighbors whose dependence constraints this
	// placement violates (successors too early, predecessors too late).
	for _, e := range s.succs.at(v) {
		q := e.To
		if q == v || s.time[q] < 0 {
			continue
		}
		if s.time[q] < t+e.Delay-s.ii*e.Dist {
			s.unschedule(q)
		}
	}
	for _, e := range s.preds.at(v) {
		p := e.From
		if p == v || s.time[p] < 0 {
			continue
		}
		if t < s.time[p]+e.Delay-s.ii*e.Dist {
			s.unschedule(p)
		}
	}
	// Copy final times into the result on the fly (cheap; last write wins).
	copy(s.res.Time, s.time)
	copy(s.res.Alt, s.alt)
}

func (s *state) unschedule(q int) {
	s.mod.Free(s.alt[q], s.time[q], q)
	s.time[q] = -1
	s.push(q)
	s.res.Reversed++
	s.res.DepEvictions++
}

// heights computes the height-based priority of Rau's scheduler: the
// longest latency-weighted path (II-adjusted for loop-carried edges) from
// each node to any leaf. Computed by relaxation; converges because every
// dependence cycle has non-positive weight at II >= RecMII.
func heights(g *ddg.Graph, ii int) []int {
	var succs edgeCSR
	succs.build(g, false)
	h := make([]int, len(g.Nodes))
	heightsInto(h, ii, &succs)
	return h
}

// heightsInto is heights over a caller-owned zeroed vector and a
// prebuilt successor CSR.
func heightsInto(h []int, ii int, succs *edgeCSR) {
	n := len(h)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for v := n - 1; v >= 0; v-- {
			for _, e := range succs.at(v) {
				if nh := h[e.To] + e.Delay - ii*e.Dist; nh > h[v] {
					h[v] = nh
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// VerifySchedule checks a successful Result against the loop and the
// ORIGINAL machine description: every dependence is satisfied modulo II
// and the chosen alternatives are contention-free on a fresh Modulo
// Reservation Table. Used by tests to cross-validate schedules produced
// through reduced descriptions.
func VerifySchedule(g *ddg.Graph, e *resmodel.Expanded, r Result) error {
	if !r.OK {
		return fmt.Errorf("sched: schedule not OK")
	}
	for _, edge := range g.Edges {
		if r.Time[edge.To] < r.Time[edge.From]+edge.Delay-r.II*edge.Dist {
			return fmt.Errorf("sched: dependence %d->%d violated: t%d=%d, t%d=%d, delay %d dist %d II %d",
				edge.From, edge.To, edge.From, r.Time[edge.From], edge.To, r.Time[edge.To],
				edge.Delay, edge.Dist, r.II)
		}
	}
	mod := query.NewDiscrete(e, r.II)
	order := make([]int, len(g.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return r.Time[order[i]] < r.Time[order[j]] })
	for _, v := range order {
		altOp := r.Alt[v]
		if g.Nodes[v].Op != e.Ops[altOp].Orig {
			return fmt.Errorf("sched: node %d placed as expanded op %d which is not an alternative of op %d",
				v, altOp, g.Nodes[v].Op)
		}
		if !mod.Check(altOp, r.Time[v]) {
			return fmt.Errorf("sched: resource contention for node %d (%s) at cycle %d",
				v, g.Nodes[v].Name, r.Time[v])
		}
		mod.Assign(altOp, r.Time[v], v)
	}
	return nil
}
