package sched

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/ddg"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// Issuer abstracts a cycle-ordered scheduling backend: the list scheduler
// walks cycles monotonically, attempting to issue operations in the
// current cycle. Both the reservation-table query module and the
// finite-state automaton support this restricted model, which makes it
// the fair common ground for comparing them (the automaton cannot easily
// support the unrestricted model of the Iterative Modulo Scheduler).
type Issuer interface {
	// TryIssue attempts to place expanded op in the current cycle,
	// reserving its resources on success.
	TryIssue(op int) bool
	// Advance moves to the next cycle.
	Advance()
}

// ModuleIssuer adapts a linear contention query module to Issuer.
type ModuleIssuer struct {
	M      query.Module
	cycle  int
	nextID int
}

// TryIssue implements Issuer.
func (mi *ModuleIssuer) TryIssue(op int) bool {
	if !mi.M.Check(op, mi.cycle) {
		return false
	}
	mi.M.Assign(op, mi.cycle, mi.nextID)
	mi.nextID++
	return true
}

// Advance implements Issuer.
func (mi *ModuleIssuer) Advance() { mi.cycle++ }

// WalkerIssuer adapts a forward-automaton walker to Issuer.
type WalkerIssuer struct {
	W *automaton.Walker
}

// TryIssue implements Issuer.
func (wi *WalkerIssuer) TryIssue(op int) bool { return wi.W.Issue(op) }

// Advance implements Issuer.
func (wi *WalkerIssuer) Advance() { wi.W.Advance() }

// ListResult is an acyclic schedule.
type ListResult struct {
	Time     []int
	Alt      []int
	Makespan int // one past the last issue cycle plus the op's latency
	Cycles   int // cycles walked by the issuer
}

// listScratch holds the reusable buffers of the acyclic schedulers
// (ListSchedule and OperationDriven), the acyclic counterpart of
// schedScratch. The zero value is ready to use.
type listScratch struct {
	prio         []int
	preds, succs edgeCSR
	time         []int
	placed       []bool
	ready        []int
	order        []int
	inDeg        []int
}

// resetListResult is resetResult for acyclic schedules.
func resetListResult(res *ListResult, n int) {
	res.Time = intsZero(res.Time, n)
	res.Alt = intsZero(res.Alt, n)
	res.Makespan, res.Cycles = 0, 0
}

// sortByPrio sorts ready by (priority descending, node index ascending)
// — the total order the schedulers' previous sort.Slice comparators
// induced, so any correct sort yields the identical permutation. The
// insertion sort keeps arena-path scheduling allocation-free.
func sortByPrio(ready, prio []int) {
	for i := 1; i < len(ready); i++ {
		v := ready[i]
		j := i - 1
		for j >= 0 && (prio[v] > prio[ready[j]] || (prio[v] == prio[ready[j]] && v < ready[j])) {
			ready[j+1] = ready[j]
			j--
		}
		ready[j+1] = v
	}
}

// ListSchedule schedules an acyclic dependence graph (all edges must have
// Dist == 0) in cycle order: at each cycle, data-ready operations are
// tried in critical-path priority order against the issuer. It is the
// greedy list scheduler classically paired with automaton-based
// contention detection.
func ListSchedule(g *ddg.Graph, e *resmodel.Expanded, iss Issuer) (ListResult, error) {
	var lsc listScratch
	var res ListResult
	err := listScheduleInto(&res, g, e, iss, &lsc)
	return res, err
}

// listScheduleInto is ListSchedule over caller-owned result and scratch
// buffers — the arena path. Behaviour is identical to the fresh path,
// which merely passes transient buffers.
func listScheduleInto(res *ListResult, g *ddg.Graph, e *resmodel.Expanded, iss Issuer, lsc *listScratch) error {
	n := len(g.Nodes)
	resetListResult(res, n)
	for _, edge := range g.Edges {
		if edge.Dist != 0 {
			return fmt.Errorf("sched: ListSchedule requires an acyclic graph; edge %d->%d has dist %d",
				edge.From, edge.To, edge.Dist)
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	// Critical-path priority (acyclic heights).
	lsc.succs.build(g, false)
	lsc.prio = intsZero(lsc.prio, n)
	heightsInto(lsc.prio, 1, &lsc.succs)
	prio := lsc.prio
	lsc.preds.build(g, true)
	preds := &lsc.preds

	lsc.time = intsZero(lsc.time, n)
	lsc.placed = boolsZero(lsc.placed, n)
	time, placed := lsc.time, lsc.placed
	for i := range time {
		time[i] = -1
	}
	remaining := n
	for cycle := 0; remaining > 0; cycle++ {
		// Safety valve: a correct issuer always makes progress eventually.
		if cycle > 100000 {
			return fmt.Errorf("sched: ListSchedule made no progress by cycle %d", cycle)
		}
		ready := lsc.ready[:0]
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			est := 0
			ok := true
			for _, edge := range preds.at(v) {
				if time[edge.From] < 0 {
					ok = false
					break
				}
				if t := time[edge.From] + edge.Delay; t > est {
					est = t
				}
			}
			if ok && est <= cycle {
				ready = append(ready, v)
			}
		}
		lsc.ready = ready[:0] // retain grown capacity
		sortByPrio(ready, prio)
		issued := false
		for _, v := range ready {
			for _, altOp := range e.AltGroup[g.Nodes[v].Op] {
				if iss.TryIssue(altOp) {
					time[v] = cycle
					res.Alt[v] = altOp
					placed[v] = true
					remaining--
					issued = true
					break
				}
			}
		}
		iss.Advance()
		res.Cycles = cycle + 1
		// Empty cycle on a query-module backend: nothing can issue until
		// either a blocked ready node's first contention-free cycle or a
		// dependence-pending node's earliest start, so jump straight
		// there. Every skipped cycle provably issues nothing (the partial
		// schedule is unchanged, so the ready set and every contention
		// answer in between are too), keeping the schedule — and the
		// final cycle count — byte-identical to the one-cycle-at-a-time
		// walk. A WalkerIssuer advances cycle by cycle (the automaton's
		// per-cycle state transition cannot be skipped).
		if !issued && remaining > 0 {
			if mi, ok := iss.(*ModuleIssuer); ok {
				next := fastForwardTarget(g, e, preds, time, placed, mi.M, cycle)
				if next > cycle+1 {
					mi.cycle = next
					cycle = next - 1
				}
			}
		}
	}
	copy(res.Time, time)
	for v := 0; v < n; v++ {
		if end := time[v] + e.Ops[res.Alt[v]].Latency; end > res.Makespan {
			res.Makespan = end
		}
	}
	return nil
}

// fastForwardTarget returns the earliest cycle after an empty cycle at
// which the list scheduler's state can change: the smallest earliest
// start among dependence-pending nodes whose predecessors are all
// placed, or the smallest first contention-free cycle among any ready
// node's alternatives. -1 means nothing can ever issue; the caller then
// advances normally and runs into the safety valve exactly as the naive
// walk would.
func fastForwardTarget(g *ddg.Graph, e *resmodel.Expanded, preds *edgeCSR,
	time []int, placed []bool, mod query.Module, cycle int) int {
	next := -1
	for v := range g.Nodes {
		if placed[v] {
			continue
		}
		est, ok := 0, true
		for _, edge := range preds.at(v) {
			if time[edge.From] < 0 {
				ok = false
				break
			}
			if t := time[edge.From] + edge.Delay; t > est {
				est = t
			}
		}
		if !ok {
			continue
		}
		if est > cycle {
			if next < 0 || est < next {
				next = est
			}
			continue
		}
		// Ready but resource-blocked this cycle: the next cycle any of
		// its alternatives fits. The high bound mirrors the safety valve.
		for _, altOp := range e.AltGroup[g.Nodes[v].Op] {
			if t, found := mod.FirstFree(altOp, cycle+1, 100001); found && (next < 0 || t < next) {
				next = t
			}
		}
	}
	return next
}
