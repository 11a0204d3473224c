package query

import (
	"testing"

	"repro/internal/machines"
)

// fillModulo builds a Cydra-5 bitvector MRT and fills roughly half of it
// deterministically, returning the module plus an (op, cycle) probe that
// stays in steady state.
func fillBitvector(tb testing.TB, ii int) *Bitvector {
	tb.Helper()
	e := machines.Cydra5().Expand()
	k := MaxCyclesPerWord(len(e.Resources), 64)
	if k < 1 {
		k = 1
	}
	b, err := NewBitvector(e, k, 64, ii)
	if err != nil {
		tb.Fatal(err)
	}
	id := 0
	for cyc := 0; cyc < 3*ii; cyc++ {
		op := (cyc * 13) % len(e.Ops)
		if b.Schedulable(op) && b.Check(op, cyc) {
			b.Assign(op, cyc, id)
			id++
		}
	}
	return b
}

// TestBitvectorSteadyStateZeroAlloc pins the satellite guarantee: once
// the reserved table is warm, the check hot path (and free) performs no
// allocations per call.
func TestBitvectorSteadyStateZeroAlloc(t *testing.T) {
	b := fillBitvector(t, 24)
	ops := len(b.e.Ops)
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		b.Check(i%ops, i%24)
		i++
	}); allocs != 0 {
		t.Errorf("modulo Check allocates %.1f per call, want 0", allocs)
	}

	// Linear table: grow once up front, then check/assign/free cycles in
	// the grown region must not allocate (grow is never reached and the
	// instance table keeps its slots).
	lin := fillBitvector(t, 0)
	op := 0
	for ; op < ops && !lin.Schedulable(op); op++ {
	}
	lin.grow(4096)
	j := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		c := 500 + (j%100)*7
		if lin.Check(op, c) {
			lin.Assign(op, c, 1<<20)
			lin.Free(op, c, 1<<20)
		}
		j++
	}); allocs != 0 {
		t.Errorf("linear check/assign/free allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkBitvectorCheck measures the check hot path with allocation
// reporting; the satellite criterion is 0 allocs/op at steady state.
func BenchmarkBitvectorCheck(b *testing.B) {
	mod := fillBitvector(b, 24)
	ops := len(mod.e.Ops)
	mod.Counters().Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Check(i%ops, i%24)
	}
}

// BenchmarkBitvectorAssignFree measures the optimistic assign&free cycle
// (assign into a free slot, then free it) with allocation reporting.
func BenchmarkBitvectorAssignFree(b *testing.B) {
	mod := fillBitvector(b, 24)
	ops := len(mod.e.Ops)
	op, cyc := -1, -1
	for c := 0; c < 24 && op < 0; c++ {
		for o := 0; o < ops; o++ {
			if mod.Schedulable(o) && mod.Check(o, c) {
				op, cyc = o, c
				break
			}
		}
	}
	if op < 0 {
		b.Skip("no free slot on the filled MRT")
	}
	mod.Counters().Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.AssignFree(op, cyc, 1<<20)
		mod.Free(op, cyc, 1<<20)
	}
}
