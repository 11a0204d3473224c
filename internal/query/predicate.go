package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// PredSet models compile-time predicate relations for predicated
// (IF-converted) code: predicate 0 is "always true"; other predicates may
// be marked pairwise disjoint (they can never both be true in the same
// iteration — e.g. the two arms of an IF-converted diamond).
type PredSet struct {
	n        int
	disjoint [][]bool
}

// NewPredSet creates n predicates (0 .. n-1) with no disjointness known.
func NewPredSet(n int) *PredSet {
	ps := &PredSet{n: n, disjoint: make([][]bool, n)}
	for i := range ps.disjoint {
		ps.disjoint[i] = make([]bool, n)
	}
	return ps
}

// MarkDisjoint records that predicates a and b are never simultaneously
// true. Predicate 0 (always true) cannot be disjoint from anything.
func (ps *PredSet) MarkDisjoint(a, b int) {
	if a == 0 || b == 0 || a == b {
		panic(fmt.Sprintf("query: cannot mark predicates %d and %d disjoint", a, b))
	}
	ps.disjoint[a][b] = true
	ps.disjoint[b][a] = true
}

// Disjoint reports whether a and b can never both be true.
func (ps *PredSet) Disjoint(a, b int) bool { return ps.disjoint[a][b] }

// predEntry is one predicated reservation of a cell.
type predEntry struct {
	id   int32
	pred int32
}

// Predicated is the Enhanced-Modulo-Scheduling flavor of the reserved
// table (Warter et al., cited in Section 5 of the paper): each entry
// carries "a field identifying the predicate under which the resource is
// reserved", so operations from disjoint predicate paths of IF-converted
// code may share a resource in the same cycle. It is a Modulo Reservation
// Table (ii > 0) or linear table (ii == 0) over a (reduced or original)
// description; reductions preserve predicated scheduling constraints for
// the same reason as unpredicated ones — contention remains pairwise.
type Predicated struct {
	e     *resmodel.Expanded
	c     *compiled
	ps    *PredSet
	ii    int
	nRes  int
	width int
	cells [][]predEntry
	inst  instTable
	ctr   Counters
}

// NewPredicated creates a predicate-aware discrete module.
func NewPredicated(e *resmodel.Expanded, ps *PredSet, ii int) *Predicated {
	if ii < 0 {
		panic("query: negative II")
	}
	p := &Predicated{e: e, c: compileFor(e, ii), ps: ps, ii: ii, nRes: len(e.Resources)}
	if ii > 0 {
		p.width = ii
	} else {
		p.width = p.c.maxSpan() + 16
	}
	p.cells = make([][]predEntry, p.nRes*p.width)
	return p
}

func (p *Predicated) col(cycle int) int {
	if p.ii > 0 {
		c := cycle % p.ii
		if c < 0 {
			c += p.ii
		}
		return c
	}
	if cycle < 0 {
		panic("query: negative cycle on linear table")
	}
	if cycle >= p.width {
		nw := p.width
		for nw <= cycle {
			nw *= 2
		}
		cells := make([][]predEntry, p.nRes*nw)
		for r := 0; r < p.nRes; r++ {
			copy(cells[r*nw:], p.cells[r*p.width:(r+1)*p.width])
		}
		p.cells, p.width = cells, nw
	}
	return cycle
}

func (p *Predicated) cell(r, cycle int) *[]predEntry {
	return &p.cells[r*p.width+p.col(cycle)]
}

// Schedulable mirrors the unpredicated modules.
func (p *Predicated) Schedulable(op int) bool { return !p.c.selfConf[op] }

// Check reports whether op under predicate pred fits at cycle: a cell is
// available if every existing reservation's predicate is disjoint from
// pred.
func (p *Predicated) Check(op, cycle, pred int) bool {
	p.ctr.CheckCalls++
	if p.c.selfConf[op] {
		p.ctr.CheckWork++
		return false
	}
	for _, u := range p.c.uses[op] {
		p.ctr.CheckWork++
		for _, en := range *p.cell(u.Resource, cycle+u.Cycle) {
			if !p.ps.Disjoint(int(en.pred), pred) {
				return false
			}
		}
	}
	return true
}

// Assign reserves op's resources at cycle under pred for instance id,
// which lies in [0, math.MaxInt32] as for Module.
func (p *Predicated) Assign(op, cycle, pred, id int) {
	p.ctr.AssignCalls++
	for _, u := range p.c.uses[op] {
		p.ctr.AssignWork++
		c := p.cell(u.Resource, cycle+u.Cycle)
		*c = append(*c, predEntry{id: int32(id), pred: int32(pred)})
	}
	p.inst.put(id, op, cycle)
}

// Free releases instance id's reservations.
func (p *Predicated) Free(op, cycle, id int) {
	p.ctr.FreeCalls++
	for _, u := range p.c.uses[op] {
		p.ctr.FreeWork++
		c := p.cell(u.Resource, cycle+u.Cycle)
		out := (*c)[:0]
		for _, en := range *c {
			if en.id != int32(id) {
				out = append(out, en)
			}
		}
		*c = out
	}
	p.inst.take(id)
}

// Counters returns the work-unit accounting.
func (p *Predicated) Counters() *Counters { return &p.ctr }

// Scheduled returns the number of scheduled instances.
func (p *Predicated) Scheduled() int { return p.inst.len() }
