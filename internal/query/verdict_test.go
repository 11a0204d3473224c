package query

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/resmodel"
)

// twinned drives a Discrete twin through every mutation of a bitvector,
// so the bitvector's rows can be checked against the cells the twin
// owns. Queries go to the bitvector alone.
type twinned struct {
	*Bitvector
	d *Discrete
}

func newTwinned(t testing.TB, e *resmodel.Expanded, k, ii int) twinned {
	t.Helper()
	b, err := NewBitvector(e, k, 64, ii)
	if err != nil {
		t.Fatal(err)
	}
	return twinned{b, NewDiscrete(e, ii)}
}

func (m twinned) Assign(op, cycle, id int) {
	m.Bitvector.Assign(op, cycle, id)
	m.d.Assign(op, cycle, id)
}

func (m twinned) AssignFree(op, cycle, id int) []int {
	m.d.AssignFree(op, cycle, id)
	return m.Bitvector.AssignFree(op, cycle, id)
}

func (m twinned) Free(op, cycle, id int) {
	m.Bitvector.Free(op, cycle, id)
	m.d.Free(op, cycle, id)
}

func (m twinned) Reset() {
	m.Bitvector.Reset()
	m.d.Reset()
}

func (m twinned) SeedDangling(ds []Dangling) error {
	if err := m.d.SeedDangling(ds); err != nil {
		return err
	}
	return m.Bitvector.SeedDangling(ds)
}

// rowsMatchFlags verifies that the rows are the reserved table: bit p of
// resource r's row is set iff the Discrete twin's cell of r at p mod II
// is owned, in all three images over [0, 3*II) on modulo tables, and at
// p on linear ones, with everything beyond zero.
func rowsMatchFlags(t *testing.T, m twinned, ctx string) {
	t.Helper()
	b := m.Bitvector
	lim := b.rowW * 64
	if b.ii > 0 {
		lim = 3 * b.ii
	}
	for r := 0; r < b.nRes; r++ {
		row := b.rows[r*b.rowW : (r+1)*b.rowW]
		for p := 0; p < b.rowW*64; p++ {
			col := p
			if b.ii > 0 {
				col = p % b.ii
			}
			got := row[p>>6]>>(p&63)&1 == 1
			want := p < lim && m.d.tab.get(r, col) >= 0
			if got != want {
				t.Fatalf("%s: resource %d position %d: row bit %v, twin cell owned %v", ctx, r, p, got, want)
			}
		}
	}
}

// TestVerdictRowsInvariant drives random mutation sequences — checked
// assigns, frees, evicting assign&frees, resets, and linear growth far
// past the initial table — through every flag write and re-verifies the
// rows against a Discrete twin after each step, on linear tables (with
// and without dangling boundary seeds) and modulo tables over random
// machines.
func TestVerdictRowsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for mi := 0; mi < 10; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			m := newTwinned(t, e, MaxCyclesPerWord(len(e.Resources), 64), ii)
			if ii == 0 && mi%2 == 0 {
				if err := m.SeedDangling([]Dangling{{Op: rng.Intn(len(e.Ops)), IssueCycle: -1, ID: 900}}); err != nil {
					t.Fatal(err)
				}
				rowsMatchFlags(t, m, fmt.Sprintf("machine %d ii=%d after SeedDangling", mi, ii))
			}
			live := map[int][2]int{}
			id := 0
			span := 64 // grows linear tables
			if ii > 0 {
				span = 3 * ii
			}
			for step := 0; step < 120; step++ {
				ctx := fmt.Sprintf("machine %d ii=%d step %d", mi, ii, step)
				switch r := rng.Intn(10); {
				case r < 5:
					op, cyc := rng.Intn(len(e.Ops)), rng.Intn(span)
					if m.Schedulable(op) && m.Check(op, cyc) {
						m.Assign(op, cyc, id)
						live[id] = [2]int{op, cyc}
						id++
					}
				case r < 7:
					op, cyc := rng.Intn(len(e.Ops)), rng.Intn(span)
					if m.Schedulable(op) {
						for _, ev := range m.AssignFree(op, cyc, id) {
							delete(live, ev)
						}
						live[id] = [2]int{op, cyc}
						id++
					}
				case r < 9:
					for fid, in := range live {
						m.Free(in[0], in[1], fid)
						delete(live, fid)
						break
					}
				default:
					m.Reset()
					live = map[int][2]int{}
				}
				rowsMatchFlags(t, m, ctx)
			}
		}
	}
}

// TestQuickVerdictThreeWay is the testing/quick differential of the
// range-scan implementations: for arbitrary seeds the bitvector's
// bit-parallel verdict scan, the discrete row scan and the naive
// per-cycle reference loop must return identical answers, and both
// scans must charge FirstFreeCycles equal to the Check probes the naive
// loop issued, over random machines, linear and modulo tables, and (on
// linear tables) schedules seeded with dangling boundary requirements.
func TestQuickVerdictThreeWay(t *testing.T) {
	prop := func(machineSeed int64, iiSeed, opSeed, loSeed, widthSeed uint8, fill int64) bool {
		e := resmodel.Random(rand.New(rand.NewSource(machineSeed)), resmodel.DefaultRandomConfig()).Expand()
		ii := 0
		if iiSeed%2 == 1 {
			ii = 1 + int(iiSeed)%8
		}
		k := MaxCyclesPerWord(len(e.Resources), 64)
		verdict, err := NewBitvector(e, k, 64, ii)
		if err != nil {
			return false
		}
		rows := NewDiscrete(e, ii)
		if ii == 0 && fill%3 == 0 {
			ds := []Dangling{{Op: int(opSeed) % len(e.Ops), IssueCycle: -1 - int(iiSeed)%2, ID: 700}}
			if err := verdict.SeedDangling(ds); err != nil {
				return true // colliding boundary requirements; nothing to compare
			}
			if err := rows.SeedDangling(ds); err != nil {
				return false
			}
		}
		fillRandom(rand.New(rand.NewSource(fill)), verdict, e, ii, 20)
		fillRandom(rand.New(rand.NewSource(fill)), rows, e, ii, 20)

		op := int(opSeed) % len(e.Ops)
		lo := int(loSeed) % 40
		if ii > 0 {
			lo -= 20
		}
		hi := lo + int(widthSeed)%25
		c0 := verdict.ctr.CheckCalls
		wantCycle, wantOK := FirstFreeNaive(verdict, op, lo, hi)
		probes := verdict.ctr.CheckCalls - c0

		v0 := verdict.ctr.FirstFreeCycles
		gotV, okV := verdict.FirstFree(op, lo, hi)
		r0 := rows.ctr.FirstFreeCycles
		gotR, okR := rows.FirstFree(op, lo, hi)
		if okV != wantOK || okR != wantOK || (wantOK && (gotV != wantCycle || gotR != wantCycle)) {
			return false
		}
		if verdict.ctr.FirstFreeCycles-v0 != probes || rows.ctr.FirstFreeCycles-r0 != probes {
			return false
		}

		origOp := int(opSeed) % len(e.AltGroup)
		c0 = verdict.ctr.CheckCalls
		wantAlt, wantC2, wantOK2 := FirstFreeWithAltNaive(verdict, origOp, lo, hi)
		probes = verdict.ctr.CheckCalls - c0
		v0 = verdict.ctr.FirstFreeCycles
		altV, cV, okV2 := verdict.FirstFreeWithAlt(origOp, lo, hi)
		r0 = rows.ctr.FirstFreeCycles
		altR, cR, okR2 := rows.FirstFreeWithAlt(origOp, lo, hi)
		if okV2 != wantOK2 || okR2 != wantOK2 ||
			(wantOK2 && (cV != wantC2 || cR != wantC2 || altV != wantAlt || altR != wantAlt)) {
			return false
		}
		return verdict.ctr.FirstFreeCycles-v0 == probes && rows.ctr.FirstFreeCycles-r0 == probes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
