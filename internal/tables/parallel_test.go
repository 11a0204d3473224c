package tables

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/parallel"
	"repro/internal/query"
)

// TestTables56ParallelDeterminism pins the worker-pool harness's core
// guarantee: the rendered Table 5 and Table 6 are byte-identical at
// workers=1 and workers=8 on the same (deterministic) benchmark — any
// counter-merge ordering bug shows up as a diff here.
func TestTables56ParallelDeterminism(t *testing.T) {
	m := machines.Cydra5()
	loops := BenchmarkLoops(m)
	if len(loops) > 80 {
		loops = loops[:80]
	}

	t5serial := ComputeTable5Workers(m, loops, 6, 1).Render()
	t5par := ComputeTable5Workers(m, loops, 6, 8).Render()
	if t5serial != t5par {
		t.Errorf("Table 5 differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", t5serial, t5par)
	}
	if got := ComputeTable5(m, loops, 6).Render(); got != t5serial {
		t.Errorf("ComputeTable5 does not match its Workers(1) form")
	}

	reps := PaperRepresentations(m)
	if len(reps) > 3 {
		reps = reps[:3] // original + res-uses + first bitvector keeps -race fast
	}
	t6serial := ComputeTable6Workers(m, loops, reps, 1).Render()
	t6par := ComputeTable6Workers(m, loops, reps, 8).Render()
	if t6serial != t6par {
		t.Errorf("Table 6 differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", t6serial, t6par)
	}
}

func TestKernelsParallelDeterminism(t *testing.T) {
	m := machines.Cydra5()
	serial, err := ComputeKernelsWorkers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ComputeKernelsWorkers(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if RenderKernels(serial) != RenderKernels(par) {
		t.Errorf("kernel report differs between workers=1 and workers=8")
	}
}

// TestAddCountersSumsEveryField drives Counters.AddFrom, the merge the
// table harness uses, through reflection so a Counters field added
// without a matching merge line fails the test instead of silently
// dropping statistics.
func TestAddCountersSumsEveryField(t *testing.T) {
	var src, dst query.Counters
	sv, dv := reflect.ValueOf(&src).Elem(), reflect.ValueOf(&dst).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(i + 1))
		dv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	dst.AddFrom(&src)
	for i := 0; i < dv.NumField(); i++ {
		want := int64(i+1) + int64(10*(i+1))
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("AddFrom drops field %s: got %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
}

// TestCountersConcurrentMerge exercises the concurrent aggregation
// pattern of the worker-pool harness: goroutines accumulate into
// indexed private slots, the caller merges in index order, and the total
// equals the serial sum regardless of completion order.
func TestCountersConcurrentMerge(t *testing.T) {
	const n = 64
	slots := make([]query.Counters, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &slots[i]
			for j := 0; j <= i; j++ {
				c.CheckCalls++
				c.CheckWork += 2
				c.AssignFreeCalls++
				c.Unscheduled += int64(j % 3)
			}
		}(i)
	}
	wg.Wait()

	total := query.Counters{}
	for i := range slots {
		total.AddFrom(&slots[i])
	}
	var wantChecks, wantWork, wantUnscheduled int64
	for i := 0; i < n; i++ {
		wantChecks += int64(i + 1)
		wantWork += 2 * int64(i+1)
		for j := 0; j <= i; j++ {
			wantUnscheduled += int64(j % 3)
		}
	}
	if total.CheckCalls != wantChecks || total.CheckWork != wantWork ||
		total.AssignFreeCalls != wantChecks || total.Unscheduled != wantUnscheduled {
		t.Errorf("merged totals %+v; want checks %d work %d unscheduled %d",
			total, wantChecks, wantWork, wantUnscheduled)
	}
}

// TestScheduleBatchMatchesSerial cross-checks the sched-level batch
// harness against one-by-one scheduling.
func TestScheduleBatchMatchesSerial(t *testing.T) {
	m := machines.Cydra5()
	loops := BenchmarkLoops(m)[:40]
	serial := ComputeTable5Workers(m, loops, 6, 1)
	for _, workers := range []int{parallel.Workers(0), 3} {
		got := ComputeTable5Workers(m, loops, 6, workers)
		if *got != *serial {
			t.Errorf("workers=%d: Table 5 struct differs from serial", workers)
		}
	}
}
