// Package query implements the contention query module of Section 7 of
// Eichenberger & Davidson (PLDI 1996).
//
// A contention query module answers, for a target machine and a partial
// schedule: "can this operation be placed in this cycle without resource
// contention?" It supports the four basic functions of the paper — check,
// assign, assign&free and free — plus check-with-alt for operations with
// alternative resource usages, over two internal representations:
//
//   - Discrete: a reserved table with one row per resource and one column
//     per schedule cycle; each entry carries a flag and a field identifying
//     the operation that reserved it. Query cost is linear in the number of
//     resource usages of the operation's reservation table.
//
//   - Bitvector: the flag bits packed K cycle-bitvectors per memory word;
//     checks AND one reservation word against the reserved table per
//     non-empty word, detecting contention for K cycles at once.
//
// Both representations exist in linear form (for acyclic scheduling) and
// modulo form (a Modulo Reservation Table of II columns, for software
// pipelining). All four implementations count work units exactly as the
// paper does — one unit per resource usage handled (discrete) or per
// non-empty word handled (bitvector), plus the optimistic-to-update mode
// transition cost of assign&free — so Table 6 is measured, not modeled.
//
// Either assign or assign&free, but not both, should be used within one
// partial schedule; assign&free relies on the operation-owner fields.
package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// Module is the contention query interface used by schedulers. Operations
// are identified by their expanded-op index; instances of a scheduled
// operation are identified by a caller-chosen id in [0, math.MaxInt32].
// The owner fields that assign&free evicts by hold ids in 32 bits, so a
// wider id is truncated: its contentions go unseen, or the wrong
// instance is evicted. Callers taking ids from outside validate them
// (the serve executor answers 400). Every
// module answers range queries (RangeQuerier) and exposes alternative
// groups (AltGrouper), so schedulers have one slot-search path.
type Module interface {
	RangeQuerier
	AltGrouper
	// Check reports whether op can be scheduled at cycle without resource
	// contention against the current partial schedule.
	Check(op, cycle int) bool
	// Assign reserves the resources of op scheduled at cycle for instance
	// id. It must only be called when Check returned true.
	Assign(op, cycle, id int)
	// AssignFree schedules op at cycle for instance id even if resources
	// conflict: every conflicting scheduled instance is unscheduled first
	// and returned.
	AssignFree(op, cycle, id int) []int
	// Free releases the resources reserved for instance id, which was
	// scheduled as op at cycle.
	Free(op, cycle, id int)
	// CheckWithAlt determines whether origOp — identified by its index in
	// the source (unexpanded) machine — or any of its alternative
	// operations can be scheduled at cycle. It returns the expanded-op
	// index of a contention-free alternative.
	CheckWithAlt(origOp, cycle int) (op int, ok bool)
	// Schedulable reports whether op can be scheduled at all. On a Modulo
	// Reservation Table an operation whose reservation table folds onto
	// itself modulo II (needing one resource in one steady-state cycle for
	// two different iterations) is unschedulable at this II and the
	// scheduler must try a larger II; linear tables always return true.
	Schedulable(op int) bool
	// Counters returns the work-unit accounting for this module.
	Counters() *Counters
	// Reset clears the partial schedule and the counters.
	Reset()
}

// Counters accumulates calls and work units per basic function. One work
// unit is the handling of a single resource usage or a single non-empty
// word in a reservation table (Section 8).
type Counters struct {
	CheckCalls, CheckWork           int64
	AssignCalls, AssignWork         int64
	AssignFreeCalls, AssignFreeWork int64
	FreeCalls, FreeWork             int64
	CheckWithAltCalls               int64
	// FirstFreeCalls and FirstFreeWithAltCalls count range queries
	// (RangeQuerier); FirstFreeWork is their work units — row windows,
	// reserved-table cells or automaton probes examined, like CheckWork.
	// FirstFreeCycles is the number of per-cycle check probes a naive
	// Check/CheckWithAlt loop would have issued to answer the same range
	// query (candidate cycles scanned times alternatives tried), so
	// CheckCalls+FirstFreeCycles is the same probe count whether a
	// caller issues range queries or the per-cycle loop.
	FirstFreeCalls, FirstFreeWork int64
	FirstFreeCycles               int64
	FirstFreeWithAltCalls         int64
	// FirstFreeSkips counts candidate cycles a range scan answered "free"
	// through the occupancy summary bitmap alone — one summary probe (one
	// work unit) instead of one row-window read per usage. Always 0 for
	// discrete and automaton modules.
	FirstFreeSkips int64
	// FirstFreeVerdictWords counts the 64-candidate verdict words built by
	// the bit-parallel range scan (see verdict.go) — the scan's throughput
	// currency, one word per up-to-64 candidate cycles ruled in or out.
	// Always 0 for discrete and automaton modules.
	FirstFreeVerdictWords int64
	// ModeTransitions counts optimistic-to-update transitions of the
	// bitvector assign&free (always 0 for discrete modules).
	ModeTransitions int64
	// Unscheduled counts instances evicted by AssignFree;
	// AssignFreeEvicting counts AssignFree calls that evicted at least one
	// instance (Section 8: "the assign&free function unscheduled one or
	// more operations in 13.0% of the attempts").
	Unscheduled        int64
	AssignFreeEvicting int64
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// AddFrom accumulates src into c field by field. It is the one place
// that knows every counter, so aggregators (Table 6, scheduler arenas,
// benchmark harnesses) cannot silently drop a newly added field.
func (c *Counters) AddFrom(src *Counters) {
	c.CheckCalls += src.CheckCalls
	c.CheckWork += src.CheckWork
	c.AssignCalls += src.AssignCalls
	c.AssignWork += src.AssignWork
	c.AssignFreeCalls += src.AssignFreeCalls
	c.AssignFreeWork += src.AssignFreeWork
	c.FreeCalls += src.FreeCalls
	c.FreeWork += src.FreeWork
	c.CheckWithAltCalls += src.CheckWithAltCalls
	c.FirstFreeCalls += src.FirstFreeCalls
	c.FirstFreeWork += src.FirstFreeWork
	c.FirstFreeCycles += src.FirstFreeCycles
	c.FirstFreeWithAltCalls += src.FirstFreeWithAltCalls
	c.FirstFreeSkips += src.FirstFreeSkips
	c.FirstFreeVerdictWords += src.FirstFreeVerdictWords
	c.ModeTransitions += src.ModeTransitions
	c.Unscheduled += src.Unscheduled
	c.AssignFreeEvicting += src.AssignFreeEvicting
}

// Sub subtracts src from c field by field (the inverse of AddFrom), for
// delta-based per-loop accounting over a long-lived arena module.
func (c *Counters) Sub(src *Counters) {
	c.CheckCalls -= src.CheckCalls
	c.CheckWork -= src.CheckWork
	c.AssignCalls -= src.AssignCalls
	c.AssignWork -= src.AssignWork
	c.AssignFreeCalls -= src.AssignFreeCalls
	c.AssignFreeWork -= src.AssignFreeWork
	c.FreeCalls -= src.FreeCalls
	c.FreeWork -= src.FreeWork
	c.CheckWithAltCalls -= src.CheckWithAltCalls
	c.FirstFreeCalls -= src.FirstFreeCalls
	c.FirstFreeWork -= src.FirstFreeWork
	c.FirstFreeCycles -= src.FirstFreeCycles
	c.FirstFreeWithAltCalls -= src.FirstFreeWithAltCalls
	c.FirstFreeSkips -= src.FirstFreeSkips
	c.FirstFreeVerdictWords -= src.FirstFreeVerdictWords
	c.ModeTransitions -= src.ModeTransitions
	c.Unscheduled -= src.Unscheduled
	c.AssignFreeEvicting -= src.AssignFreeEvicting
}

// TotalCalls returns the number of calls to the four basic functions.
func (c *Counters) TotalCalls() int64 {
	return c.CheckCalls + c.AssignCalls + c.AssignFreeCalls + c.FreeCalls
}

// TotalWork returns the total work units over the four basic functions.
func (c *Counters) TotalWork() int64 {
	return c.CheckWork + c.AssignWork + c.AssignFreeWork + c.FreeWork
}

// CheckPerCall returns average work units per Check call; zero calls
// yield zero.
func (c *Counters) CheckPerCall() float64 {
	if c.CheckCalls == 0 {
		return 0
	}
	return float64(c.CheckWork) / float64(c.CheckCalls)
}

// instance records where a scheduled instance lives, for eviction and for
// the bitvector module's update-mode rebuild.
type instance struct {
	op    int
	cycle int
}

// checkWithAlt implements CheckWithAlt generically over a module's Check.
func checkWithAlt(m Module, e *resmodel.Expanded, origOp, cycle int) (int, bool) {
	if origOp < 0 || origOp >= len(e.AltGroup) {
		panic(fmt.Sprintf("query: CheckWithAlt: original op index %d out of range", origOp))
	}
	for _, op := range e.AltGroup[origOp] {
		if m.Check(op, cycle) {
			return op, true
		}
	}
	return -1, false
}

// AltGrouper exposes the alternative group of an original (unexpanded)
// operation: the expanded-op indices a scheduler may branch over when
// placing that operation, in the canonical group order CheckWithAlt
// probes them. It is part of Module; schedulers that branch per
// alternative (IMS forced placement, sched.Optimal enumerating
// candidates) read the group from the module instead of re-deriving it
// from the expanded machine.
type AltGrouper interface {
	AltGroupOf(origOp int) []int
}
