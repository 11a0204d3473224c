package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// Discrete is the discrete-representation reserved table: one row per
// resource, one column per schedule cycle, each entry holding the id of
// the instance that reserved it (or -1). With II > 0 it is a Modulo
// Reservation Table: column indices wrap modulo II.
type Discrete struct {
	e     *resmodel.Expanded
	c     *compiled
	ii    int // 0 = linear
	nRes  int
	cells []int32 // cells[r*width + col] = instance id or -1
	width int
	inst  map[int]instance
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
	d := &Discrete{e: e, c: compileFor(e, ii), ii: ii, nRes: len(e.Resources), inst: map[int]instance{},
		met: newModuleObs("discrete")}
	if ii > 0 {
		d.width = ii
	} else {
		d.width = d.c.maxSpan() + 16
	}
	d.cells = make([]int32, d.nRes*d.width)
	for i := range d.cells {
		d.cells[i] = -1
	}
	return d
}

// II returns the initiation interval (0 for a linear table).
func (d *Discrete) II() int { return d.ii }

// uses returns op's (folded) reservation-table usages.
func (d *Discrete) uses(op int) []resmodel.Usage { return d.c.uses[op] }

// col maps a schedule cycle to a column index, growing linear tables.
func (d *Discrete) col(cycle int) int {
	if d.ii > 0 {
		c := cycle % d.ii
		if c < 0 {
			c += d.ii
		}
		return c
	}
	if cycle < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", cycle))
	}
	if cycle >= d.width {
		d.growTo(cycle + 1)
	}
	return cycle
}

func (d *Discrete) growTo(width int) {
	nw := d.width
	for nw < width {
		nw *= 2
	}
	cells := make([]int32, d.nRes*nw)
	for i := range cells {
		cells[i] = -1
	}
	for r := 0; r < d.nRes; r++ {
		copy(cells[r*nw:r*nw+d.width], d.cells[r*d.width:(r+1)*d.width])
	}
	d.cells, d.width = cells, nw
}

func (d *Discrete) cell(r, cycle int) *int32 {
	return &d.cells[r*d.width+d.col(cycle)]
}

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
	for _, u := range d.uses(op) {
		d.ctr.CheckWork++
		if *d.cell(u.Resource, cycle+u.Cycle) >= 0 {
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
	for _, u := range d.uses(op) {
		d.ctr.AssignWork++
		*d.cell(u.Resource, cycle+u.Cycle) = int32(id)
	}
	d.inst[id] = instance{op, cycle}
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
	for _, u := range d.uses(op) {
		d.ctr.AssignFreeWork++
		c := d.cell(u.Resource, cycle+u.Cycle)
		if other := int(*c); other >= 0 && other != id {
			evicted = append(evicted, other)
			d.evict(other)
		}
		*c = int32(id)
	}
	d.evictScratch = evicted
	d.inst[id] = instance{op, cycle}
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
			d.e.Ops[op].Name, d.ii))
	}
}

// evict releases all cells of a conflicting instance (internal: its work
// is charged to the enclosing AssignFree, per Section 8).
func (d *Discrete) evict(id int) {
	in, ok := d.inst[id]
	if !ok {
		panic(fmt.Sprintf("query: evicting unknown instance %d", id))
	}
	for _, u := range d.uses(in.op) {
		d.ctr.AssignFreeWork++
		c := d.cell(u.Resource, in.cycle+u.Cycle)
		if int(*c) == id {
			*c = -1
		}
	}
	delete(d.inst, id)
}

// Free implements Module.
func (d *Discrete) Free(op, cycle, id int) {
	d.ctr.FreeCalls++
	w0 := d.ctr.FreeWork
	for _, u := range d.uses(op) {
		d.ctr.FreeWork++
		c := d.cell(u.Resource, cycle+u.Cycle)
		if int(*c) == id {
			*c = -1
		}
	}
	delete(d.inst, id)
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
// the cell grid keeps its grown width and the instance map its buckets
// — so an arena-held module resets without allocating.
func (d *Discrete) Reset() {
	for i := range d.cells {
		d.cells[i] = -1
	}
	clear(d.inst)
	d.ctr.Reset()
}

// Scheduled returns the number of currently scheduled instances.
func (d *Discrete) Scheduled() int { return len(d.inst) }

var _ Module = (*Discrete)(nil)

// AltGroupOf returns the expanded-op indices implementing the given
// original operation (used by schedulers for forced placements).
func (d *Discrete) AltGroupOf(origOp int) []int { return d.e.AltGroup[origOp] }

// StateBytes reports the reserved-table storage in bytes: 4 per
// (resource, cycle) cell (flag folded into the owner field).
func (d *Discrete) StateBytes() int { return 4 * len(d.cells) }
