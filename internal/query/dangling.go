package query

// Dangling describes a resource requirement dangling into a basic block
// from a predecessor: Op was issued IssueCycle cycles BEFORE the block
// entry (IssueCycle < 0), so the usages of its reservation table that fall
// at or after the entry must be reserved in the successor's schedule.
//
// Handling boundary conditions precisely is a strength of the
// reservation-table representation (Section 1): the successor block's
// reserved table is simply initialized with the union of all dangling
// requirements of its predecessors, with no special cases. (The
// finite-state-automaton pair needs up to O(s^2) extra states for the
// same effect, which is why PairModule does not support it.)
type Dangling struct {
	Op         int // expanded-op index
	IssueCycle int // < 0: cycles before block entry
	ID         int // instance id for eviction bookkeeping, in [0, math.MaxInt32] (see Module)
}

// DanglingSeeder is implemented by reserved-table modules that support
// precise basic-block boundary conditions.
type DanglingSeeder interface {
	Module
	// SeedDangling reserves the portions of the dangling operations'
	// reservation tables that extend into this block (cycle >= 0). It must
	// be called on an empty schedule, before any Assign. Two distinct
	// instances reserving one cell is an error; one instance reserving a
	// cell twice is not.
	//
	// A seeded instance is then an instance like any other: a conflicting
	// AssignFree evicts it, and Free releases it at its (negative) issue
	// cycle. Its usages before the entry belong to the predecessor block:
	// they are charged like any usage or word, but read as free and are
	// never written.
	SeedDangling(ds []Dangling) error
}

// SeedDangling implements DanglingSeeder for the discrete representation.
func (d *Discrete) SeedDangling(ds []Dangling) error {
	return d.tab.seed(d.e, d.c, &d.inst, ds, false, nil)
}

// SeedDangling implements DanglingSeeder for the bitvector
// representation. The bitvector flags carry no owner fields, so the
// collision check reads the owner table, which seeding fills as the
// update-mode rebuild would.
func (b *Bitvector) SeedDangling(ds []Dangling) error {
	return b.owners().seed(b.e, b.c, &b.inst, ds, false, b.set)
}

// SeedDanglingUnion seeds the union of dangling requirements from SEVERAL
// predecessor blocks. Unlike SeedDangling it tolerates collisions between
// entries: requirements from different predecessors may overlap on a
// resource cycle because at run time only one predecessor's operations are
// actually in flight — the union is the precise conservative boundary
// condition of Section 1 ("the union of all the resource requirements
// dangling from predecessor basic blocks"). The last listed entry owns a
// shared cell for eviction bookkeeping, as an overwriting Assign would
// leave it.
func (d *Discrete) SeedDanglingUnion(ds []Dangling) error {
	return d.tab.seed(d.e, d.c, &d.inst, ds, true, nil)
}

// SeedDanglingUnion implements the multi-predecessor boundary condition
// for the bitvector representation: overlapping requirements from
// different predecessors OR into the same flags without error, exactly
// mirroring Discrete.SeedDanglingUnion, ownership included.
func (b *Bitvector) SeedDanglingUnion(ds []Dangling) error {
	return b.owners().seed(b.e, b.c, &b.inst, ds, true, b.set)
}

// DanglingFrom extracts the dangling requirements a scheduled block
// leaves for a successor entered at cycle `exit`: every instance issued
// before the exit whose reservation table extends past it, re-anchored to
// the successor's entry. Instance ids are preserved.
func DanglingFrom(instances map[int]struct{ Op, Cycle int }, span func(op int) int, exit int) []Dangling {
	var out []Dangling
	for id, in := range instances {
		if in.Cycle < exit && in.Cycle+span(in.Op) > exit {
			out = append(out, Dangling{Op: in.Op, IssueCycle: in.Cycle - exit, ID: id})
		}
	}
	return out
}

// Instances returns the currently scheduled instances of a discrete
// module (id -> op, cycle), for boundary-condition extraction.
func (d *Discrete) Instances() map[int]struct{ Op, Cycle int } {
	return d.inst.export()
}

// Instances returns the currently scheduled instances of a bitvector
// module.
func (b *Bitvector) Instances() map[int]struct{ Op, Cycle int } {
	return b.inst.export()
}
