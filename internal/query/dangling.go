package query

import "fmt"

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
	// be called on an empty schedule, before any Assign.
	SeedDangling(ds []Dangling) error
}

// SeedDangling implements DanglingSeeder for the discrete representation.
func (d *Discrete) SeedDangling(ds []Dangling) error {
	if d.ii > 0 {
		return fmt.Errorf("query: dangling requirements apply to linear schedules, not Modulo Reservation Tables")
	}
	if d.inst.len() > 0 {
		return fmt.Errorf("query: SeedDangling on a non-empty schedule")
	}
	for _, dg := range ds {
		if dg.IssueCycle >= 0 {
			return fmt.Errorf("query: dangling op %d has non-negative issue cycle %d", dg.Op, dg.IssueCycle)
		}
		for _, u := range d.uses(dg.Op) {
			t := dg.IssueCycle + u.Cycle
			if t < 0 {
				continue // consumed in the predecessor block
			}
			c := d.cell(u.Resource, t)
			if *c >= 0 && int(*c) != dg.ID {
				return fmt.Errorf("query: dangling requirements of instances %d and %d collide on %s at cycle %d",
					*c, dg.ID, d.e.Resources[u.Resource], t)
			}
			*c = int32(dg.ID)
		}
		d.inst.put(dg.ID, dg.Op, dg.IssueCycle)
	}
	return nil
}

// SeedDangling implements DanglingSeeder for the bitvector representation.
// The bitvector flags carry no owner fields, so seeding tracks cell
// ownership on the side: like Discrete.SeedDangling, a (resource, cycle)
// cell reserved twice by the SAME instance — a reservation table that
// uses one cell twice, or the same id listed twice — is not a collision;
// only two distinct instances contending for a cell is.
func (b *Bitvector) SeedDangling(ds []Dangling) error {
	if b.ii > 0 {
		return fmt.Errorf("query: dangling requirements apply to linear schedules, not Modulo Reservation Tables")
	}
	if b.inst.len() > 0 {
		return fmt.Errorf("query: SeedDangling on a non-empty schedule")
	}
	owner := make(map[[2]int]int) // (resource, cycle) -> seeding instance id
	for _, dg := range ds {
		if dg.IssueCycle >= 0 {
			return fmt.Errorf("query: dangling op %d has non-negative issue cycle %d", dg.Op, dg.IssueCycle)
		}
		for _, u := range b.c.uses[dg.Op] {
			t := dg.IssueCycle + u.Cycle
			if t < 0 {
				continue
			}
			if b.reservedBit(u.Resource, t) {
				if prev := owner[[2]int{u.Resource, t}]; prev != dg.ID {
					return fmt.Errorf("query: dangling requirements of instances %d and %d collide on %s at cycle %d",
						prev, dg.ID, b.e.Resources[u.Resource], t)
				}
				continue
			}
			b.setBit(u.Resource, t)
			owner[[2]int{u.Resource, t}] = dg.ID
		}
		b.inst.put(dg.ID, dg.Op, dg.IssueCycle)
	}
	return nil
}

// SeedDanglingUnion seeds the union of dangling requirements from SEVERAL
// predecessor blocks. Unlike SeedDangling it tolerates collisions between
// entries: requirements from different predecessors may overlap on a
// resource cycle because at run time only one predecessor's operations are
// actually in flight — the union is the precise conservative boundary
// condition of Section 1 ("the union of all the resource requirements
// dangling from predecessor basic blocks"). The first owner of a cell wins
// for eviction bookkeeping.
func (d *Discrete) SeedDanglingUnion(ds []Dangling) error {
	if d.ii > 0 {
		return fmt.Errorf("query: dangling requirements apply to linear schedules, not Modulo Reservation Tables")
	}
	if d.inst.len() > 0 {
		return fmt.Errorf("query: SeedDanglingUnion on a non-empty schedule")
	}
	for _, dg := range ds {
		if dg.IssueCycle >= 0 {
			return fmt.Errorf("query: dangling op %d has non-negative issue cycle %d", dg.Op, dg.IssueCycle)
		}
		for _, u := range d.uses(dg.Op) {
			t := dg.IssueCycle + u.Cycle
			if t < 0 {
				continue
			}
			c := d.cell(u.Resource, t)
			if *c < 0 {
				*c = int32(dg.ID)
			}
		}
		d.inst.put(dg.ID, dg.Op, dg.IssueCycle)
	}
	return nil
}

// SeedDanglingUnion implements the multi-predecessor boundary condition
// for the bitvector representation: overlapping requirements from
// different predecessors OR into the same flags without error, exactly
// mirroring Discrete.SeedDanglingUnion.
func (b *Bitvector) SeedDanglingUnion(ds []Dangling) error {
	if b.ii > 0 {
		return fmt.Errorf("query: dangling requirements apply to linear schedules, not Modulo Reservation Tables")
	}
	if b.inst.len() > 0 {
		return fmt.Errorf("query: SeedDanglingUnion on a non-empty schedule")
	}
	for _, dg := range ds {
		if dg.IssueCycle >= 0 {
			return fmt.Errorf("query: dangling op %d has non-negative issue cycle %d", dg.Op, dg.IssueCycle)
		}
		for _, u := range b.c.uses[dg.Op] {
			t := dg.IssueCycle + u.Cycle
			if t < 0 {
				continue
			}
			b.setBit(u.Resource, t)
		}
		b.inst.put(dg.ID, dg.Op, dg.IssueCycle)
	}
	return nil
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
