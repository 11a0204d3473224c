package sched

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// OperationDriven schedules an acyclic dependence graph in *operation*
// order rather than cycle order: operations are processed in topological
// order with critical-path priority, and each is inserted at its earliest
// dependence-feasible, contention-free cycle. Because independent chains
// interleave, insertions jump backwards in time — the unrestricted
// placement model that the Cydra 5 compiler's operation-driven scheduler
// uses for scalar code (Section 1) and that cycle-ordered automaton
// walkers cannot serve. Any query.Module backend works, including the
// automaton PairModule; the work each backend performs to support
// arbitrary insertion is what the paper compares.
func OperationDriven(g *ddg.Graph, e *resmodel.Expanded, mod query.Module) (ListResult, error) {
	var lsc listScratch
	var res ListResult
	err := operationDrivenInto(&res, g, e, mod, &lsc)
	return res, err
}

// operationDrivenInto is OperationDriven over caller-owned result and
// scratch buffers — the arena path. Behaviour is identical to the fresh
// path, which merely passes transient buffers.
func operationDrivenInto(res *ListResult, g *ddg.Graph, e *resmodel.Expanded, mod query.Module, lsc *listScratch) error {
	n := len(g.Nodes)
	resetListResult(res, n)
	for _, edge := range g.Edges {
		if edge.Dist != 0 {
			return fmt.Errorf("sched: OperationDriven requires an acyclic graph")
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	lsc.succs.build(g, false)
	lsc.prio = intsZero(lsc.prio, n)
	heightsInto(lsc.prio, 1, &lsc.succs)
	prio := lsc.prio
	lsc.preds.build(g, true)
	preds := &lsc.preds

	// Topological order via repeated selection of ready ops, highest
	// priority first — so unrelated critical chains are scheduled before
	// short chains, and short-chain ops later insert at EARLIER cycles.
	lsc.placed = boolsZero(lsc.placed, n)
	lsc.time = intsZero(lsc.time, n)
	lsc.inDeg = intsZero(lsc.inDeg, n)
	placed, time, inDeg := lsc.placed, lsc.time, lsc.inDeg
	order := lsc.order[:0]
	for _, edge := range g.Edges {
		inDeg[edge.To]++
	}
	// ready is consumed from the front via a head index, so the sorted
	// remainder is ready[head:] — the same set the slice-popping loop
	// sorted, in the same total order.
	ready := lsc.ready[:0]
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	succs := &lsc.succs
	for head := 0; head < len(ready); {
		sortByPrio(ready[head:], prio)
		v := ready[head]
		head++
		order = append(order, v)
		for _, edge := range succs.at(v) {
			inDeg[edge.To]--
			if inDeg[edge.To] == 0 {
				ready = append(ready, edge.To)
			}
		}
	}
	lsc.ready, lsc.order = ready[:0], order[:0] // retain grown capacity
	if len(order) != n {
		return fmt.Errorf("sched: graph is cyclic")
	}

	// One range query answers each node's whole slot search.
	id := 0
	for _, v := range order {
		estart := 0
		for _, edge := range preds.at(v) {
			if t := time[edge.From] + edge.Delay; t > estart {
				estart = t
			}
		}
		op, t, ok := mod.FirstFreeWithAlt(g.Nodes[v].Op, estart, estart+100000)
		if !ok {
			return fmt.Errorf("sched: no slot found for node %d", v)
		}
		mod.Assign(op, t, id)
		id++
		time[v] = t
		res.Alt[v] = op
		placed[v] = true
	}
	copy(res.Time, time)
	for v := 0; v < n; v++ {
		if end := time[v] + e.Ops[res.Alt[v]].Latency; end > res.Makespan {
			res.Makespan = end
		}
		if time[v]+1 > res.Cycles {
			res.Cycles = time[v] + 1
		}
	}
	return nil
}
