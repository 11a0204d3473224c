package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// Discrete is the discrete-representation reserved table: one row per
// resource, one column per schedule cycle, each entry holding the id of
// the instance that reserved it (or -1). With II > 0 it is a Modulo
// Reservation Table: column indices wrap modulo II. The whole table is
// one cellTable.
type Discrete struct {
	e    *resmodel.Expanded
	c    *compiled
	tab  *cellTable
	inst instTable
	// evictScratch backs the slice AssignFree returns, reused across
	// calls so steady-state eviction allocates nothing.
	evictScratch []int
	ctr          Counters
	met          *moduleObs // nil while metrics are disabled
}

// NewDiscrete creates a discrete-representation module for the machine.
// ii == 0 gives a linear reserved table that grows on demand; ii > 0 gives
// a Modulo Reservation Table with ii columns.
func NewDiscrete(e *resmodel.Expanded, ii int) *Discrete {
	if ii < 0 {
		panic(fmt.Sprintf("query: NewDiscrete: negative II %d", ii))
	}
	c := compileFor(e, ii)
	return &Discrete{e: e, c: c, tab: newCellTable(len(e.Resources), c), met: newModuleObs("discrete")}
}

// II returns the initiation interval (0 for a linear table).
func (d *Discrete) II() int { return d.tab.ii }

// Schedulable implements Module.
func (d *Discrete) Schedulable(op int) bool { return !d.c.selfConf[op] }

// Check implements Module. It aborts at the first contention; the number
// of usages tested is the work performed.
func (d *Discrete) Check(op, cycle int) bool {
	d.ctr.CheckCalls++
	w0 := d.ctr.CheckWork
	ok := d.check(op, cycle)
	d.met.OnCheck(d.ctr.CheckWork - w0)
	return ok
}

func (d *Discrete) check(op, cycle int) bool {
	if d.c.selfConf[op] {
		d.ctr.CheckWork++
		return false
	}
	mustEntry(d.tab.ii, cycle)
	base := d.tab.fold(cycle)
	for _, u := range d.c.uses[op] {
		d.ctr.CheckWork++
		if *d.tab.cell(u.Resource, d.tab.at(base, u.Cycle)) >= 0 {
			return false
		}
	}
	return true
}

// Assign implements Module.
func (d *Discrete) Assign(op, cycle, id int) {
	d.ctr.AssignCalls++
	d.mustSchedulable(op)
	w0 := d.ctr.AssignWork
	mustEntry(d.tab.ii, cycle)
	base := d.tab.fold(cycle)
	for _, u := range d.c.uses[op] {
		d.ctr.AssignWork++
		*d.tab.cell(u.Resource, d.tab.at(base, u.Cycle)) = int32(id)
	}
	d.inst.put(id, op, cycle)
	d.met.OnAssign(d.ctr.AssignWork - w0)
}

// AssignFree implements Module: conflicting instances are unscheduled and
// returned, then op is scheduled. The evictions' table walks count toward
// this call's work, as in the paper.
func (d *Discrete) AssignFree(op, cycle, id int) []int {
	d.ctr.AssignFreeCalls++
	d.mustSchedulable(op)
	w0 := d.ctr.AssignFreeWork
	evicted := d.evictScratch[:0]
	mustEntry(d.tab.ii, cycle)
	base := d.tab.fold(cycle)
	for _, u := range d.c.uses[op] {
		d.ctr.AssignFreeWork++
		c := d.tab.cell(u.Resource, d.tab.at(base, u.Cycle))
		if other := int(*c); other >= 0 && other != id {
			evicted = append(evicted, other)
			d.evict(other)
		}
		*c = int32(id)
	}
	d.evictScratch = evicted
	d.inst.put(id, op, cycle)
	d.ctr.Unscheduled += int64(len(evicted))
	if len(evicted) > 0 {
		d.ctr.AssignFreeEvicting++
	}
	d.met.OnAssignFree(d.ctr.AssignFreeWork-w0, len(evicted))
	return evicted
}

func (d *Discrete) mustSchedulable(op int) {
	if d.c.selfConf[op] {
		panic(fmt.Sprintf("query: op %q is unschedulable at II=%d (reservation table folds onto itself)",
			d.e.Ops[op].Name, d.tab.ii))
	}
}

// evict releases all cells of a conflicting instance (internal: its work
// is charged to the enclosing AssignFree, per Section 8). Every usage is
// one unit, including a dangling instance's usages before the entry,
// whose cells the table skips.
func (d *Discrete) evict(id int) {
	in, ok := d.inst.take(id)
	if !ok {
		panic(fmt.Sprintf("query: evicting unknown instance %d", id))
	}
	base := d.tab.fold(in.cycle)
	for _, u := range d.c.uses[in.op] {
		d.ctr.AssignFreeWork++
		d.tab.release(u.Resource, d.tab.at(base, u.Cycle), int32(id))
	}
}

// Free implements Module. cycle may lie before a linear table's entry
// when id is a seeded dangling instance.
func (d *Discrete) Free(op, cycle, id int) {
	d.ctr.FreeCalls++
	w0 := d.ctr.FreeWork
	base := d.tab.fold(cycle)
	for _, u := range d.c.uses[op] {
		d.ctr.FreeWork++
		if c := d.tab.cell(u.Resource, d.tab.at(base, u.Cycle)); c != nil && int(*c) == id {
			*c = -1
		}
	}
	d.inst.take(id)
	d.met.OnFree(d.ctr.FreeWork - w0)
}

// CheckWithAlt implements Module.
func (d *Discrete) CheckWithAlt(origOp, cycle int) (int, bool) {
	d.ctr.CheckWithAltCalls++
	d.met.OnCheckWithAlt()
	return checkWithAlt(d, d.e, origOp, cycle)
}

// Counters implements Module.
func (d *Discrete) Counters() *Counters { return &d.ctr }

// Reset implements Module. Like Bitvector.Reset it clears in place —
// the cell grid keeps its grown width and the instance table its slots
// — so an arena-held module resets without allocating.
func (d *Discrete) Reset() {
	d.tab.reset()
	d.inst.clear()
	d.ctr.Reset()
}

// Scheduled returns the number of currently scheduled instances.
func (d *Discrete) Scheduled() int { return d.inst.len() }

var _ Module = (*Discrete)(nil)

// AltGroupOf returns the expanded-op indices implementing the given
// original operation (used by schedulers for forced placements).
func (d *Discrete) AltGroupOf(origOp int) []int { return d.e.AltGroup[origOp] }

// StateBytes reports the reserved-table storage in bytes: 4 per
// (resource, cycle) cell (flag folded into the owner field).
func (d *Discrete) StateBytes() int { return d.tab.bytes() }
