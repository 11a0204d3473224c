package query

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/resmodel"
)

// rowsMatchFlags verifies the verdict-row invariant: every maintained
// row bit equals the reserved-flags occupancy the module itself reports
// through reservedBit — bit p of resource r's row is busy(p mod II) on
// modulo tables (three images over [0, 3*II)) and busy(p) on linear
// ones, with everything beyond the written region zero.
func rowsMatchFlags(t *testing.T, b *Bitvector, ctx string) {
	t.Helper()
	lim := b.rowW * 64
	if b.ii > 0 {
		lim = 3 * b.ii
	}
	for r := 0; r < b.nRes; r++ {
		row := b.rows[r*b.rowW : (r+1)*b.rowW]
		for p := 0; p < b.rowW*64; p++ {
			got := row[p>>6]>>(p&63)&1 == 1
			want := p < lim && b.reservedBit(r, p)
			if got != want {
				t.Fatalf("%s: resource %d position %d: row bit %v, reserved flag %v", ctx, r, p, got, want)
			}
		}
	}
}

// TestVerdictRowsInvariant drives random mutation sequences — checked
// assigns, frees, evicting assign&frees, resets, and linear growth far
// past the initial table — through every row-maintenance chokepoint and
// re-verifies rows == flags after each step, on linear tables (with and
// without dangling boundary seeds) and modulo tables over random
// machines.
func TestVerdictRowsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for mi := 0; mi < 10; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			b, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, ii)
			if err != nil {
				t.Fatal(err)
			}
			if ii == 0 && mi%2 == 0 {
				if err := b.SeedDangling([]Dangling{{Op: rng.Intn(len(e.Ops)), IssueCycle: -1, ID: 900}}); err != nil {
					t.Fatal(err)
				}
				rowsMatchFlags(t, b, fmt.Sprintf("machine %d ii=%d after SeedDangling", mi, ii))
			}
			live := map[int][2]int{}
			id := 0
			span := 64 // exercises growWords on linear tables
			if ii > 0 {
				span = 3 * ii
			}
			for step := 0; step < 120; step++ {
				ctx := fmt.Sprintf("machine %d ii=%d step %d", mi, ii, step)
				switch r := rng.Intn(10); {
				case r < 5:
					op, cyc := rng.Intn(len(e.Ops)), rng.Intn(span)
					if b.Schedulable(op) && b.Check(op, cyc) {
						b.Assign(op, cyc, id)
						live[id] = [2]int{op, cyc}
						id++
					}
				case r < 7:
					op, cyc := rng.Intn(len(e.Ops)), rng.Intn(span)
					if b.Schedulable(op) {
						for _, ev := range b.AssignFree(op, cyc, id) {
							delete(live, ev)
						}
						live[id] = [2]int{op, cyc}
						id++
					}
				case r < 9:
					for fid, in := range live {
						b.Free(in[0], in[1], fid)
						delete(live, fid)
						break
					}
				default:
					b.Reset()
					live = map[int][2]int{}
				}
				rowsMatchFlags(t, b, ctx)
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
