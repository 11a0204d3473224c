package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// cellTable is the discrete reserved table of Section 7: one row per
// resource, one column per schedule cycle, each cell holding the id of
// the instance that reserved it, or -1 when free. With II > 0 it is a
// Modulo Reservation Table of II columns; with II == 0 it is a linear
// table that doubles its width as it grows. Discrete keeps its whole
// state in one; Bitvector keeps its update-mode owner fields in one.
//
// It is the only code that folds a cycle into a column, grows a linear
// row or addresses a cell. A caller folds its query cycle once (fold)
// and reaches every usage from there with at, which costs at most one
// conditional subtract because folded usage offsets lie below II.
//
// A linear column below 0 lies before the block entry: it belongs to the
// predecessor block, and only a seeded dangling instance (Dangling) has
// usages there. Reads see such a cell as free, and writes skip it.
type cellTable struct {
	ii    int // 0 = linear
	nRes  int
	width int     // columns: II, or the grown linear width
	cells []int32 // cells[r*width+col] = instance id, or -1
}

// newCellTable builds an empty table for c's II: II columns on a Modulo
// Reservation Table; on a linear one the longest span plus 16, so short
// blocks never grow.
func newCellTable(nRes int, c *compiled) *cellTable {
	t := &cellTable{ii: c.ii, nRes: nRes, width: c.ii}
	if c.ii == 0 {
		t.width = c.maxSpan() + 16
	}
	t.cells = make([]int32, nRes*t.width)
	t.reset()
	return t
}

// fold returns cycle mod m in [0, m), negative cycles included (m > 0).
func fold(cycle, m int) int {
	c := cycle % m
	if c < 0 {
		c += m
	}
	return c
}

// mustEntry panics on a query cycle before a linear table's entry: the
// cells there belong to the predecessor block, and no query may name
// them.
func mustEntry(ii, cycle int) {
	if ii == 0 && cycle < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", cycle))
	}
}

// fold maps a query cycle to its base column: mod II on a Modulo
// Reservation Table, unchanged on a linear one.
func (t *cellTable) fold(cycle int) int {
	if t.ii > 0 {
		return fold(cycle, t.ii)
	}
	return cycle
}

// at returns the column off cycles past base. On a Modulo Reservation
// Table base lies in [0, II) and off in [0, II), so one conditional
// subtract folds the sum.
func (t *cellTable) at(base, off int) int {
	c := base + off
	if t.ii > 0 && c >= t.ii {
		c -= t.ii
	}
	return c
}

// get reads the owner of resource r at column c without growing the
// table: columns before the entry or beyond a linear table's width read
// free.
func (t *cellTable) get(r, c int) int32 {
	if c < 0 || c >= t.width {
		return -1
	}
	return t.cells[r*t.width+c]
}

// cell returns resource r's cell at column c, growing a linear table to
// cover it, or nil for a column before the entry. The pointer is valid
// until the table next grows; get and release never grow it, so an
// eviction between reading and writing a cell keeps it valid.
func (t *cellTable) cell(r, c int) *int32 {
	if uint(c) >= uint(t.width) {
		return t.cellOutside(r, c)
	}
	return &t.cells[r*t.width+c]
}

// cellOutside is cell's path for a column outside the table, kept out
// of line so cell itself is small enough to inline into the per-usage
// loops.
//
//go:noinline
func (t *cellTable) cellOutside(r, c int) *int32 {
	if c < 0 {
		return nil
	}
	t.grow(c + 1)
	return &t.cells[r*t.width+c]
}

// grow doubles a linear table's width until it covers width columns.
// The width never shrinks, not even on reset, so a reused table grows
// only past its largest width so far.
func (t *cellTable) grow(width int) {
	ow, nw := t.width, t.width
	for nw < width {
		nw *= 2
	}
	cells := make([]int32, t.nRes*nw)
	for r := 0; r < t.nRes; r++ {
		row := cells[r*nw : (r+1)*nw]
		copy(row, t.cells[r*ow:(r+1)*ow])
		for i := ow; i < nw; i++ {
			row[i] = -1
		}
	}
	t.cells, t.width = cells, nw
}

// release frees resource r's cell at column c if id owns it, reporting
// whether it did. It never grows the table: a column before the entry
// or beyond the width is owned by no one.
func (t *cellTable) release(r, c int, id int32) bool {
	if c < 0 || c >= t.width || t.cells[r*t.width+c] != id {
		return false
	}
	t.cells[r*t.width+c] = -1
	return true
}

// nextFree returns how many columns past busy column c resource r's row
// next reads free, charging one work unit per cell examined. Columns
// beyond a linear table's width are free without a read. A full modulo
// row returns -1: the usage never clears at this II.
func (t *cellTable) nextFree(r, c int, work *int64) int {
	row := t.cells[r*t.width : (r+1)*t.width]
	if t.ii > 0 {
		for delta := 1; delta < t.ii; delta++ {
			*work++
			if row[t.at(c, delta)] < 0 {
				return delta
			}
		}
		return -1
	}
	for delta := 1; c+delta < t.width; delta++ {
		*work++
		if row[c+delta] < 0 {
			return delta
		}
	}
	return t.width - c
}

// reset frees every cell in place, keeping the grown width, so a reset
// module allocates nothing.
func (t *cellTable) reset() {
	for i := range t.cells {
		t.cells[i] = -1
	}
}

// bytes is the table's storage: 4 bytes per cell.
func (t *cellTable) bytes() int { return 4 * len(t.cells) }

// seed is the one seeding walk behind SeedDangling (union false) and
// SeedDanglingUnion (union true). It validates the call, clears the
// table, and reserves every usage of each dangling instance that falls
// at or after the block entry: the cell records the instance as owner
// (the last listed entry owns a cell two entries share) and mark, when
// set, flags the cell busy in the module's own representation. Usages
// before the entry were consumed in the predecessor block and are
// skipped. Without union, a cell owned by a different instance is a
// collision; one instance reserving a cell twice is not.
func (t *cellTable) seed(e *resmodel.Expanded, c *compiled, inst *instTable, ds []Dangling, union bool, mark func(r, cycle int)) error {
	name := "SeedDangling"
	if union {
		name = "SeedDanglingUnion"
	}
	if t.ii > 0 {
		return fmt.Errorf("query: dangling requirements apply to linear schedules, not Modulo Reservation Tables")
	}
	if inst.len() > 0 {
		return fmt.Errorf("query: %s on a non-empty schedule", name)
	}
	t.reset()
	for _, dg := range ds {
		if dg.IssueCycle >= 0 {
			return fmt.Errorf("query: dangling op %d has non-negative issue cycle %d", dg.Op, dg.IssueCycle)
		}
		for _, u := range c.uses[dg.Op] {
			col := dg.IssueCycle + u.Cycle
			cell := t.cell(u.Resource, col)
			if cell == nil {
				continue
			}
			if !union && *cell >= 0 && int(*cell) != dg.ID {
				return fmt.Errorf("query: dangling requirements of instances %d and %d collide on %s at cycle %d",
					*cell, dg.ID, e.Resources[u.Resource], col)
			}
			*cell = int32(dg.ID)
			if mark != nil {
				mark(u.Resource, col)
			}
		}
		inst.put(dg.ID, dg.Op, dg.IssueCycle)
	}
	return nil
}
