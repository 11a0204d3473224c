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
	n := len(g.Nodes)
	res := newListResult(n)
	for _, edge := range g.Edges {
		if edge.Dist != 0 {
			return res, fmt.Errorf("sched: OperationDriven requires an acyclic graph")
		}
	}
	if err := g.Validate(); err != nil {
		return res, err
	}
	var succs, preds edgeCSR
	succs.build(g, false)
	prio := make([]int, n)
	heightsInto(prio, 1, &succs)
	preds.build(g, true)

	// Topological order via repeated selection of ready ops, highest
	// priority first — so unrelated critical chains are scheduled before
	// short chains, and short-chain ops later insert at EARLIER cycles.
	time, inDeg := make([]int, n), make([]int, n)
	order := make([]int, 0, n)
	for _, edge := range g.Edges {
		inDeg[edge.To]++
	}
	// ready is consumed from the front via a head index, so the sorted
	// remainder is ready[head:] — the same set the slice-popping loop
	// sorted, in the same total order.
	var ready []int
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			ready = append(ready, v)
		}
	}
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
	if len(order) != n {
		return res, fmt.Errorf("sched: graph is cyclic")
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
			return res, fmt.Errorf("sched: no slot found for node %d", v)
		}
		mod.Assign(op, t, id)
		id++
		time[v] = t
		res.Alt[v] = op
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
	return res, nil
}
