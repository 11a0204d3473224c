package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machines"
	"repro/internal/resmodel"
)

// rangeModules builds every RangeQuerier implementation for a machine:
// the discrete module and the 1- and max-k-cycle-word bitvector ones.
func rangeModules(t *testing.T, e *resmodel.Expanded, ii int) map[string]Module {
	t.Helper()
	ms := map[string]Module{"discrete": NewDiscrete(e, ii)}
	for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
		if k < 1 {
			continue
		}
		bv, err := NewBitvector(e, k, 64, ii)
		if err != nil {
			t.Fatalf("NewBitvector(k=%d): %v", k, err)
		}
		ms["bitvec-k"+string(rune('0'+k))] = bv
	}
	return ms
}

// fillRandom assigns a random contention-free partial schedule, identical
// across modules for a fixed seed.
func fillRandom(rng *rand.Rand, m Module, e *resmodel.Expanded, ii, n int) {
	span := 40
	if ii > 0 {
		span = 3 * ii
	}
	id := 0
	for i := 0; i < n; i++ {
		op := rng.Intn(len(e.Ops))
		cyc := rng.Intn(span)
		if m.Schedulable(op) && m.Check(op, cyc) {
			m.Assign(op, cyc, id)
			id++
		}
	}
}

// TestFirstFreeMatchesNaive pins the heart of the range-query contract:
// FirstFree answers exactly what a naive loop over Check answers — same
// cycle, same found/not-found — and FirstFreeCycles advances by exactly
// the number of Check probes that loop would have issued, over random
// machines, random partial schedules, linear and modulo tables, and
// windows that are empty, in-table, straddling and beyond the table.
func TestFirstFreeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for mi := 0; mi < 12; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			for name, m := range rangeModules(t, e, ii) {
				rq := m.(RangeQuerier)
				fillRandom(rand.New(rand.NewSource(int64(mi))), m, e, ii, 25)
				for trial := 0; trial < 60; trial++ {
					op := rng.Intn(len(e.Ops))
					lo := rng.Intn(45)
					if ii > 0 {
						lo = rng.Intn(6*ii) - 3*ii
					}
					hi := lo + rng.Intn(30) - 2 // sometimes empty
					checks0 := m.Counters().CheckCalls
					wantCycle, wantOK := FirstFreeNaive(m, op, lo, hi)
					// The naive loop just issued the reference probe count;
					// the range query must account exactly that number.
					naiveProbes := m.Counters().CheckCalls - checks0
					cycles0 := m.Counters().FirstFreeCycles
					gotCycle, gotOK := rq.FirstFree(op, lo, hi)
					if gotOK != wantOK || (wantOK && gotCycle != wantCycle) {
						t.Fatalf("machine %d ii=%d %s: FirstFree(%d, %d, %d) = (%d, %v), naive (%d, %v)",
							mi, ii, name, op, lo, hi, gotCycle, gotOK, wantCycle, wantOK)
					}
					if got := m.Counters().FirstFreeCycles - cycles0; got != naiveProbes {
						t.Fatalf("machine %d ii=%d %s: FirstFree(%d, %d, %d) accounted %d cycles, naive issued %d checks",
							mi, ii, name, op, lo, hi, got, naiveProbes)
					}
				}
			}
		}
	}
}

// TestFirstFreeWithAltMatchesNaive is the with-alternatives differential:
// same first feasible cycle, same alternative-group tie-break, and a
// FirstFreeCycles advance equal to the Check probes the naive
// CheckWithAlt loop issues (alternatives tried times cycles scanned).
func TestFirstFreeWithAltMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for mi := 0; mi < 12; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(8)} {
			for name, m := range rangeModules(t, e, ii) {
				rq := m.(RangeQuerier)
				fillRandom(rand.New(rand.NewSource(int64(mi)+100)), m, e, ii, 25)
				for trial := 0; trial < 60; trial++ {
					origOp := rng.Intn(len(e.AltGroup))
					lo := rng.Intn(45)
					if ii > 0 {
						lo = rng.Intn(6*ii) - 3*ii
					}
					hi := lo + rng.Intn(30) - 2
					checks0 := m.Counters().CheckCalls
					wantOp, wantCycle, wantOK := FirstFreeWithAltNaive(m, origOp, lo, hi)
					naiveProbes := m.Counters().CheckCalls - checks0
					cycles0 := m.Counters().FirstFreeCycles
					gotOp, gotCycle, gotOK := rq.FirstFreeWithAlt(origOp, lo, hi)
					if gotOK != wantOK || (wantOK && (gotCycle != wantCycle || gotOp != wantOp)) {
						t.Fatalf("machine %d ii=%d %s: FirstFreeWithAlt(%d, %d, %d) = (op %d, cycle %d, %v), naive (op %d, cycle %d, %v)",
							mi, ii, name, origOp, lo, hi, gotOp, gotCycle, gotOK, wantOp, wantCycle, wantOK)
					}
					if got := m.Counters().FirstFreeCycles - cycles0; got != naiveProbes {
						t.Fatalf("machine %d ii=%d %s: FirstFreeWithAlt(%d, %d, %d) accounted %d cycles, naive issued %d checks",
							mi, ii, name, origOp, lo, hi, got, naiveProbes)
					}
				}
			}
		}
	}
}

// TestFirstFreeDanglingWindows runs the differential over linear tables
// seeded with dangling requirements from a predecessor block — windows at
// the block entry where the reserved table is pre-populated by boundary
// conditions rather than Assign calls.
func TestFirstFreeDanglingWindows(t *testing.T) {
	e := machines.Cydra5().Expand()
	ds := []Dangling{{Op: 0, IssueCycle: -1, ID: 900}}
	for name, m := range rangeModules(t, e, 0) {
		seeder, ok := m.(DanglingSeeder)
		if !ok {
			t.Fatalf("%s: no dangling support", name)
		}
		if err := seeder.SeedDangling(ds); err != nil {
			t.Fatalf("%s: SeedDangling: %v", name, err)
		}
		rq := m.(RangeQuerier)
		for op := 0; op < len(e.Ops); op++ {
			for lo := 0; lo < 6; lo++ {
				for hi := lo; hi < lo+8; hi++ {
					wantCycle, wantOK := FirstFreeNaive(m, op, lo, hi)
					gotCycle, gotOK := rq.FirstFree(op, lo, hi)
					if gotOK != wantOK || (wantOK && gotCycle != wantCycle) {
						t.Fatalf("%s: dangling FirstFree(%d, %d, %d) = (%d, %v), naive (%d, %v)",
							name, op, lo, hi, gotCycle, gotOK, wantCycle, wantOK)
					}
				}
			}
		}
	}
}

// TestFirstFreeQuick is quick.Check property coverage: for arbitrary
// (op, lo, width, fill seed) on a fixed machine, both representations
// agree with the naive loop at a modulo and a linear table.
func TestFirstFreeQuick(t *testing.T) {
	e := machines.Cydra5().Expand()
	prop := func(opSeed, loSeed, widthSeed uint8, fill int64) bool {
		for _, ii := range []int{0, 7} {
			for _, m := range rangeModules(t, e, ii) {
				rq := m.(RangeQuerier)
				fillRandom(rand.New(rand.NewSource(fill)), m, e, ii, 20)
				op := int(opSeed) % len(e.Ops)
				lo := int(loSeed) % 40
				if ii > 0 {
					lo -= 20
				}
				hi := lo + int(widthSeed)%25
				wantCycle, wantOK := FirstFreeNaive(m, op, lo, hi)
				gotCycle, gotOK := rq.FirstFree(op, lo, hi)
				if gotOK != wantOK || (wantOK && gotCycle != wantCycle) {
					return false
				}
				origOp := int(opSeed) % len(e.AltGroup)
				wantAlt, wantC2, wantOK2 := FirstFreeWithAltNaive(m, origOp, lo, hi)
				gotAlt, gotC2, gotOK2 := rq.FirstFreeWithAlt(origOp, lo, hi)
				if gotOK2 != wantOK2 || (wantOK2 && (gotC2 != wantC2 || gotAlt != wantAlt)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckWorkBeyondTable is the work-accounting regression test for the
// linear bitvector check: a probe whose words all fall beyond the
// table's width must charge exactly one work unit — the comparison that
// discovered the out-of-range word — not zero and not one per remaining
// word, so CheckPerCall stays the paper's per-probed-word metric on both
// the linear and the modulo path.
func TestCheckWorkBeyondTable(t *testing.T) {
	e := figure1()
	b, err := NewBitvector(e, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	opB := -1
	for i, op := range e.Ops {
		if op.Name == "B" {
			opB = i
		}
	}
	if opB < 0 {
		t.Fatal("figure1 has no op B")
	}
	words := len(b.ct.words[opB][0])
	if words < 2 {
		t.Fatalf("op B packs into %d words, need >= 2 for the regression", words)
	}
	far := b.linWords*b.k + 5

	w0 := b.ctr.CheckWork
	if !b.Check(opB, far) {
		t.Fatalf("empty table: Check(B, %d) = false", far)
	}
	if got := b.ctr.CheckWork - w0; got != 1 {
		t.Errorf("fully out-of-range check charged %d work units, want 1", got)
	}

	// An in-range probe of the empty table still pays for every word.
	w0 = b.ctr.CheckWork
	if !b.Check(opB, 0) {
		t.Fatal("empty table: Check(B, 0) = false")
	}
	if got := b.ctr.CheckWork - w0; got != int64(words) {
		t.Errorf("in-range check charged %d work units, want %d", got, words)
	}
}

// TestFirstFreeZeroAlloc pins that steady-state range queries allocate
// nothing on either representation, with metrics disabled (the scheduler
// hot path) — mirroring the Check/AssignFree alloc pins.
func TestFirstFreeZeroAlloc(t *testing.T) {
	const ii = 24
	bv := fillBitvector(t, ii)
	d := fillDiscrete(t, ii)
	cases := []struct {
		name string
		fn   func()
	}{
		{"bitvector-first-free", func() { bv.FirstFree(3, 5, 5+ii-1) }},
		{"bitvector-first-free-alt", func() { bv.FirstFreeWithAlt(1, 5, 5+ii-1) }},
		{"discrete-first-free", func() { d.FirstFree(3, 5, 5+ii-1) }},
		{"discrete-first-free-alt", func() { d.FirstFreeWithAlt(1, 5, 5+ii-1) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(2000, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// The FirstFree benchmark quartet mirrors BenchmarkCheck*: metrics
// disabled must be 0 allocs/op; the *Metrics variants price the enabled
// path, which may pay for atomics but not allocate either.

func BenchmarkFirstFreeDiscrete(b *testing.B) {
	d := fillDiscrete(b, 24)
	ops := len(d.e.Ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FirstFree(i%ops, i%24, i%24+23)
	}
}

func BenchmarkFirstFreeDiscreteMetrics(b *testing.B) {
	withMetrics(b, func() {
		d := fillDiscrete(b, 24)
		ops := len(d.e.Ops)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.FirstFree(i%ops, i%24, i%24+23)
		}
		b.StopTimer()
	})
}

func BenchmarkFirstFreeBitvector(b *testing.B) {
	mod := fillBitvector(b, 24)
	ops := len(mod.e.Ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.FirstFree(i%ops, i%24, i%24+23)
	}
}

func BenchmarkFirstFreeBitvectorMetrics(b *testing.B) {
	withMetrics(b, func() {
		mod := fillBitvector(b, 24)
		ops := len(mod.e.Ops)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mod.FirstFree(i%ops, i%24, i%24+23)
		}
		b.StopTimer()
	})
}

func BenchmarkFirstFreeWithAltBitvector(b *testing.B) {
	mod := fillBitvector(b, 24)
	groups := len(mod.e.AltGroup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.FirstFreeWithAlt(i%groups, i%24, i%24+23)
	}
}

// The *Naive pair prices the reference per-cycle loop on the same
// module and ranges, so `go test -bench FirstFree` shows the per-call
// gap the range scan buys before any scheduler-level amortization.

func BenchmarkFirstFreeBitvectorNaive(b *testing.B) {
	mod := fillBitvector(b, 24)
	ops := len(mod.e.Ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FirstFreeNaive(mod, i%ops, i%24, i%24+23)
	}
}

func BenchmarkFirstFreeWithAltBitvectorNaive(b *testing.B) {
	mod := fillBitvector(b, 24)
	groups := len(mod.e.AltGroup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FirstFreeWithAltNaive(mod, i%groups, i%24, i%24+23)
	}
}
