package query

import (
	"math/rand"
	"testing"

	"repro/internal/machines"
	"repro/internal/resmodel"
)

// newBitvectors builds the k=1 and densest-k bitvector modules (the two
// packing extremes) for a machine at the given II.
func newBitvectors(t *testing.T, e *resmodel.Expanded, ii int) map[string]*Bitvector {
	t.Helper()
	out := map[string]*Bitvector{}
	for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
		if k < 1 {
			continue
		}
		bv, err := NewBitvector(e, k, 64, ii)
		if err != nil {
			t.Fatalf("NewBitvector(k=%d): %v", k, err)
		}
		out["k"+string(rune('0'+k))] = bv
	}
	return out
}

// checkOccInvariant verifies the occupancy summary's defining property:
// bit w of occ is set iff word w of the backing table is non-zero.
func checkOccInvariant(t *testing.T, name string, b *Bitvector) {
	t.Helper()
	backing := b.reserved
	if b.ii > 0 {
		backing = b.mirror
	}
	for wi, word := range backing {
		got := b.occ[wi>>6]&(1<<uint(wi&63)) != 0
		if got != (word != 0) {
			t.Fatalf("%s: occ invariant broken at word %d: word=%#x, summary bit %v",
				name, wi, word, got)
		}
	}
	for wi := len(backing); wi < 64*len(b.occ); wi++ {
		if b.occ[wi>>6]&(1<<uint(wi&63)) != 0 {
			t.Fatalf("%s: occ bit set for word %d beyond the %d-word table",
				name, wi, len(backing))
		}
	}
}

// TestOccupancySummaryInvariant drives random Assign/Free/AssignFree/
// range-query sequences over linear and modulo tables and re-derives the
// summary bitmap from the backing words after every mutation.
func TestOccupancySummaryInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for mi := 0; mi < 8; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			for name, b := range newBitvectors(t, e, ii) {
				span := 40
				if ii > 0 {
					span = 3 * ii
				}
				live := map[int]instance{}
				id := 0
				for step := 0; step < 300; step++ {
					op := rng.Intn(len(e.Ops))
					cyc := rng.Intn(span)
					switch rng.Intn(5) {
					case 0, 1: // assign if free
						if b.Schedulable(op) && b.Check(op, cyc) {
							b.Assign(op, cyc, id)
							live[id] = instance{op, cyc}
							id++
						}
					case 2: // free a live instance
						for fid, in := range live {
							b.Free(in.op, in.cycle, fid)
							delete(live, fid)
							break
						}
					case 3: // range query (must not mutate)
						b.FirstFree(op, cyc, cyc+rng.Intn(2*span))
					case 4:
						b.FirstFreeWithAlt(rng.Intn(len(e.AltGroup)), cyc, cyc+rng.Intn(span))
					}
					checkOccInvariant(t, name, b)
				}
				b.Reset()
				checkOccInvariant(t, name+"-reset", b)
			}
		}
	}
}

// TestOccupancySummaryInvariantAssignFree is the same walk through the
// AssignFree path — optimistic mode, the mode transition, update-mode
// evictions and rollbacks all maintain the summary.
func TestOccupancySummaryInvariantAssignFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for mi := 0; mi < 8; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			for name, b := range newBitvectors(t, e, ii) {
				span := 40
				if ii > 0 {
					span = 3 * ii
				}
				for step := 0; step < 200; step++ {
					op := rng.Intn(len(e.Ops))
					if !b.Schedulable(op) {
						continue
					}
					b.AssignFree(op, rng.Intn(span), step)
					checkOccInvariant(t, name, b)
				}
			}
		}
	}
}

// TestSummaryScanDifferential pins the fast path's contract: a range
// scan that answers candidates through the occupancy summary returns
// exactly what the naive per-cycle loop returns, and FirstFreeCycles
// advances by exactly the Check probes that loop issued, while the skip
// path demonstrably runs. The naive loop runs on an identically filled
// twin so its probes never touch the scanned module.
func TestSummaryScanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	totalSkips := int64(0)
	for mi := 0; mi < 10; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			for name, b := range newBitvectors(t, e, ii) {
				ref := newBitvectors(t, e, ii)[name]
				fillRandom(rand.New(rand.NewSource(int64(mi))), b, e, ii, 25)
				fillRandom(rand.New(rand.NewSource(int64(mi))), ref, e, ii, 25)
				for trial := 0; trial < 80; trial++ {
					lo := rng.Intn(45)
					if ii > 0 {
						lo = rng.Intn(6*ii) - 3*ii
					}
					hi := lo + rng.Intn(40) - 2
					cyc0, checks0 := b.ctr.FirstFreeCycles, ref.ctr.CheckCalls
					if trial%2 == 0 {
						op := rng.Intn(len(e.Ops))
						gc, gok := b.FirstFree(op, lo, hi)
						wc, wok := FirstFreeNaive(ref, op, lo, hi)
						if gok != wok || (wok && gc != wc) {
							t.Fatalf("machine %d ii=%d %s: FirstFree(%d,%d,%d) = (%d,%v), naive (%d,%v)",
								mi, ii, name, op, lo, hi, gc, gok, wc, wok)
						}
					} else {
						origOp := rng.Intn(len(e.AltGroup))
						gop, gc, gok := b.FirstFreeWithAlt(origOp, lo, hi)
						wop, wc, wok := FirstFreeWithAltNaive(ref, origOp, lo, hi)
						if gok != wok || (wok && (gc != wc || gop != wop)) {
							t.Fatalf("machine %d ii=%d %s: FirstFreeWithAlt(%d,%d,%d) = (%d,%d,%v), naive (%d,%d,%v)",
								mi, ii, name, origOp, lo, hi, gop, gc, gok, wop, wc, wok)
						}
					}
					if got, want := b.ctr.FirstFreeCycles-cyc0, ref.ctr.CheckCalls-checks0; got != want {
						t.Fatalf("machine %d ii=%d %s: probe accounting diverged: scan %d, naive %d",
							mi, ii, name, got, want)
					}
				}
				totalSkips += b.ctr.FirstFreeSkips
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("summary scan never skipped a candidate across the whole differential — fast path dead")
	}
}

// TestResetDoesNotAllocate pins the arena's core assumption: resetting a
// warmed module — including one that grew its linear table, entered
// update mode and evicted — allocates nothing, and the module behaves
// exactly like a fresh one afterwards.
func TestResetDoesNotAllocate(t *testing.T) {
	e := machines.Cydra5().Expand()
	type step struct{ op, cycle int }
	rng := rand.New(rand.NewSource(5))
	steps := make([]step, 40)
	for i := range steps {
		steps[i] = step{op: rng.Intn(len(e.Ops)), cycle: rng.Intn(50)}
	}
	exercise := func(m Module) {
		for i, s := range steps {
			if m.Schedulable(s.op) {
				m.AssignFree(s.op, s.cycle, i)
			}
		}
	}
	bv, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Module{"bitvector": bv, "discrete": NewDiscrete(e, 0)} {
		exercise(m) // warm: grow tables, enter update mode, populate instances
		if n := testing.AllocsPerRun(100, func() {
			m.Reset()
			exercise(m)
		}); n != 0 {
			t.Errorf("%s: reset+reuse allocated %v times per run, want 0", name, n)
		}
		m.Reset()
		// A reset module must answer like a fresh one.
		fresh := NewDiscrete(e, 0)
		if name == "bitvector" {
			f, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, 0)
			if err != nil {
				t.Fatal(err)
			}
			exercise(f)
			exercise(m)
			if got, want := m.Counters(), f.Counters(); *got != *want {
				t.Errorf("%s: counters after reset+reuse = %+v, fresh = %+v", name, *got, *want)
			}
			continue
		}
		exercise(fresh)
		exercise(m)
		if got, want := m.Counters(), fresh.Counters(); *got != *want {
			t.Errorf("%s: counters after reset+reuse = %+v, fresh = %+v", name, *got, *want)
		}
	}
}
