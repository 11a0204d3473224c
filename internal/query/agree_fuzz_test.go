package query

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// agreeModules builds the modules FuzzModulesAgree compares: the discrete
// table and the bitvector at one cycle per word and at the densest
// packing (capped at II on a Modulo Reservation Table).
func agreeModules(t *testing.T, e *resmodel.Expanded, ii int) []Module {
	t.Helper()
	mods := []Module{NewDiscrete(e, ii)}
	for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
		bv, err := NewBitvector(e, k, 64, ii)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, bv)
	}
	return mods
}

// modulesAgree decodes data into a query sequence and runs it on every
// module of agreeModules, failing at the first answer or eviction list
// that differs. Work counters are specific to each representation and
// are not compared.
//
// Byte 0 picks the machine (bit 0) and the II (the rest mod 6; 0 is a
// linear table). On a linear table byte 1 gives up to three dangling
// instances (low two bits) and whether they are seeded as a union
// (bit 2), followed by two bytes per instance: op and cycles before the
// entry. The rest is three bytes per call: kind, op, cycle. The kinds
// are Check, Assign after a Check that succeeded, AssignFree, Free of a
// live instance (dangling ones included; in optimistic mode only one
// that owns all its cells), FirstFree and FirstFreeWithAlt; a range
// query's length comes from the op byte.
func modulesAgree(t *testing.T, es []*resmodel.Expanded, data []byte) {
	if len(data) < 2 {
		return
	}
	e := es[int(data[0]&1)]
	ii := int(data[0]>>1) % 6
	mods := agreeModules(t, e, ii)
	type inst struct{ op, cycle int }
	live := map[int]inst{}
	var ids []int
	drop := func(id int) {
		delete(live, id)
		ids = slices.DeleteFunc(ids, func(x int) bool { return x == id })
	}
	data = data[1:]
	if ii == 0 {
		n, union := int(data[0]&3), data[0]&4 != 0
		data = data[1:]
		var ds []Dangling
		for i := 0; i < n && len(data) >= 2; i++ {
			ds = append(ds, Dangling{Op: int(data[0]) % len(e.Ops), IssueCycle: -1 - int(data[1]%16), ID: 100 + i})
			data = data[2:]
		}
		var errs []error
		for _, m := range mods {
			s := m.(DanglingSeeder)
			if union {
				errs = append(errs, s.(interface{ SeedDanglingUnion([]Dangling) error }).SeedDanglingUnion(ds))
			} else {
				errs = append(errs, s.SeedDangling(ds))
			}
		}
		for i := range errs {
			if (errs[i] == nil) != (errs[0] == nil) {
				t.Fatalf("seeding %+v (union %v): %T says %v, %T says %v", ds, union, mods[0], errs[0], mods[i], errs[i])
			}
		}
		if errs[0] != nil {
			return
		}
		for _, dg := range ds {
			live[dg.ID] = inst{dg.Op, dg.IssueCycle}
			ids = append(ids, dg.ID)
		}
	}
	cycleOf := func(b byte) int {
		if ii > 0 {
			return int(b) - 128
		}
		return int(b)
	}
	nextID := 1000
	for step := 0; len(data) >= 3; step++ {
		kind, opb, cyc := data[0]%6, data[1], cycleOf(data[2])
		data = data[3:]
		op := int(opb) % len(e.Ops)
		same := func(what string, got func(m Module) string) {
			want := got(mods[0])
			for _, m := range mods[1:] {
				if g := got(m); g != want {
					t.Fatalf("ii=%d step %d: %s: %T answers %s, %T answers %s", ii, step, what, mods[0], want, m, g)
				}
			}
		}
		switch kind {
		case 0, 1:
			same(fmt.Sprintf("Check(%d, %d)", op, cyc), func(m Module) string { return fmt.Sprint(m.Check(op, cyc)) })
			if kind == 1 && mods[0].Schedulable(op) && mods[0].Check(op, cyc) {
				for _, m := range mods {
					m.Assign(op, cyc, nextID)
				}
				live[nextID] = inst{op, cyc}
				ids = append(ids, nextID)
				nextID++
			}
		case 2:
			same(fmt.Sprintf("Schedulable(%d)", op), func(m Module) string { return fmt.Sprint(m.Schedulable(op)) })
			if !mods[0].Schedulable(op) {
				continue
			}
			var evicted []int
			same(fmt.Sprintf("AssignFree(%d, %d) evictions", op, cyc), func(m Module) string {
				evicted = slices.Clone(m.AssignFree(op, cyc, nextID))
				return fmt.Sprint(evicted)
			})
			for _, id := range evicted {
				drop(id)
			}
			live[nextID] = inst{op, cyc}
			ids = append(ids, nextID)
			nextID++
		case 3:
			if len(ids) == 0 {
				continue
			}
			id := ids[int(opb)%len(ids)]
			in := live[id]
			if !mods[1].(*Bitvector).updateMode && !discreteOwnsAll(mods[0].(*Discrete), in.op, in.cycle, id) {
				// Union-seeded instances may share a cell, which only the
				// last listed one owns. In optimistic mode the Bitvector
				// has no live owner fields, so freeing the other clears
				// every flag of its op while Discrete leaves the owner's
				// cell busy; such frees are skipped in optimistic mode
				// only. In update mode both release only owned cells.
				continue
			}
			for _, m := range mods {
				m.Free(in.op, in.cycle, id)
			}
			drop(id)
		case 4:
			hi := cyc + int(opb%32)
			same(fmt.Sprintf("FirstFree(%d, %d, %d)", op, cyc, hi), func(m Module) string {
				c, ok := m.FirstFree(op, cyc, hi)
				return fmt.Sprint(c, ok)
			})
		case 5:
			orig, hi := int(opb)%len(e.AltGroup), cyc+int(opb%32)
			same(fmt.Sprintf("FirstFreeWithAlt(%d, %d, %d)", orig, cyc, hi), func(m Module) string {
				fop, c, ok := m.FirstFreeWithAlt(orig, cyc, hi)
				return fmt.Sprint(fop, c, ok)
			})
		}
	}
}

// FuzzModulesAgree is the differential of the query modules on decoded
// call sequences: Discrete and Bitvector, at one cycle per word and at
// the densest packing, must give equal answers and equal eviction lists,
// on linear tables seeded with dangling instances and on Modulo
// Reservation Tables. The seeds include freeing and evicting a dangling
// instance.
func FuzzModulesAgree(f *testing.F) {
	es := []*resmodel.Expanded{
		figure1(),
		core.CachedReduce(machines.Cydra5().Expand(), core.Objective{Kind: core.KCycleWord, K: 64}).Reduced,
	}
	// figure1, linear: B dangling 3 cycles before the entry, then
	// AssignFree(B, 0) evicts it, and Free releases the evictor.
	f.Add([]byte{0, 1, 1, 2, 2, 1, 0, 3, 0, 0, 0, 1, 0})
	// figure1, linear: the dangling B is freed at its issue cycle.
	f.Add([]byte{0, 1, 1, 2, 3, 0, 0, 0, 1, 0, 4, 1, 0})
	// figure1, linear: two overlapping Bs seeded as a union, then
	// evicted through the cell they share.
	f.Add([]byte{0, 6, 1, 2, 1, 3, 2, 1, 0, 5, 0, 0, 2, 0, 5})
	// Reduced Cydra 5 at II=4 and II=5: assigns, evictions, frees, scans.
	f.Add([]byte{9, 1, 7, 130, 2, 3, 128, 2, 11, 129, 3, 0, 0, 4, 5, 120, 5, 9, 126})
	f.Add([]byte{11, 2, 1, 128, 2, 2, 129, 2, 5, 133, 2, 1, 135, 3, 1, 0, 4, 1, 128})
	// Reduced Cydra 5, linear: two instances of op 42 seeded as a union
	// at -1 share every cell, the later one owning them. Freeing the
	// earlier one must leave them busy for Check(47, 16). The first
	// sequence frees in optimistic mode (skipped); in the second, two
	// AssignFrees of op 0 at cycle 200 enter update mode first.
	f.Add([]byte{1, 6, 42, 0, 42, 0, 3, 0, 0, 0, 47, 16})
	f.Add([]byte{1, 6, 42, 0, 42, 0, 2, 0, 200, 2, 0, 200, 3, 0, 0, 0, 47, 16})
	// Reduced Cydra 5, linear: far cycles grow the tables.
	f.Add([]byte{1, 0, 2, 3, 250, 2, 4, 240, 4, 31, 200, 5, 7, 230, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		modulesAgree(t, es, data)
	})
}
