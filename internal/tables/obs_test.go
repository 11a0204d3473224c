package tables

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machines"
	"repro/internal/obs"
)

// obsRun executes fn with metrics freshly enabled and returns the
// resulting snapshot restricted to the worker-count-invariant scopes.
// parallel.* is deliberately excluded: tasks_per_worker and imbalance
// describe pool shape and legitimately change with the worker count.
// core.stage.* wall-time histograms are excluded for the same reason:
// stage durations vary run to run. sched.arena.* module build/reuse
// counts depend on how many per-worker arenas exist, so they are
// excluded too.
func obsRun(t *testing.T, fn func()) obs.Snapshot {
	t.Helper()
	r := obs.Default()
	r.SetEnabled(true)
	r.Reset()
	defer func() {
		r.SetEnabled(false)
		r.Reset()
	}()
	fn()
	return r.Snapshot().Filter("query", "sched", "core").Exclude("core.stage", "sched.arena")
}

// TestInstrumentedRunsStayDeterministic pins the two halves of the
// observability contract at once: (1) enabling metrics changes no output
// — Table 5, Table 6 and the kernel report render byte-identical to the
// metrics-off baseline at workers 1 and 8 — and (2) the query/sched/core
// counter totals are themselves invariant under the worker count, because
// the parallel harness only redistributes the same per-loop work.
func TestInstrumentedRunsStayDeterministic(t *testing.T) {
	m := machines.Cydra5()
	loops := BenchmarkLoops(m)
	if len(loops) > 60 {
		loops = loops[:60]
	}
	render := func(workers int) string {
		// Representations are rebuilt inside each run so the reduction
		// lookups (cache hits after the warm-up baseline below) land in
		// every instrumented snapshot.
		reps := PaperRepresentations(m)
		if len(reps) > 3 {
			reps = reps[:3]
		}
		var b bytes.Buffer
		b.WriteString(ComputeTable5(m, loops, 6, workers).Render())
		b.WriteString(ComputeTable6(m, loops, reps, workers).Render())
		rows, err := ComputeKernels(m, workers)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderKernels(rows))
		return b.String()
	}

	baseline := render(1) // metrics off

	var out1, out8 string
	snap1 := obsRun(t, func() { out1 = render(1) })
	snap8 := obsRun(t, func() { out8 = render(8) })

	if out1 != baseline {
		t.Errorf("workers=1 output changes when metrics are enabled")
	}
	if out8 != baseline {
		t.Errorf("workers=8 instrumented output differs from the serial metrics-off baseline")
	}
	if !reflect.DeepEqual(snap1, snap8) {
		t.Errorf("query/sched/core metric totals differ between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			snapString(t, snap1), snapString(t, snap8))
	}
	for _, scope := range []string{"query", "sched", "core"} {
		if f := snap1.Filter(scope); len(f.Counters) == 0 && len(f.Histograms) == 0 {
			t.Errorf("instrumented run recorded no %s.* metrics", scope)
		}
	}
	if snap1.Counter("sched.loops") == 0 {
		t.Error("sched.loops counter stayed zero over an instrumented run")
	}
}

func snapString(t *testing.T, s obs.Snapshot) string {
	t.Helper()
	var b bytes.Buffer
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%s: %d\n", c.Name, c.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%s: count=%d sum=%d max=%d\n", h.Name, h.Count, h.Sum, h.Max)
	}
	return b.String()
}
