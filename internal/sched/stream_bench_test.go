package sched

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
)

// BenchmarkScheduleStreamCydra5 is the in-process compiler path that
// perfbench's ims-stream workload times: the Cydra 5 reduced under the
// 64-cycle-word objective, modules chosen per II by query.Select "auto",
// and one loopgen.DefaultStrata(2000) block streamed through
// ScheduleStream with one scheduling worker. `make profile` profiles it.
func BenchmarkScheduleStreamCydra5(b *testing.B) {
	m := machines.Cydra5()
	red := core.CachedReduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		b.Fatal(err)
	}
	factory := func(ii int) query.Module {
		sel, err := query.Select(red.Reduced, query.Policy{Representation: "auto", II: ii})
		if err != nil {
			panic(fmt.Sprintf("query.Select auto at II %d: %v", ii, err))
		}
		return sel.Module
	}
	strata := loopgen.DefaultStrata(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := loopgen.NewStream(m, strata)
		if err != nil {
			b.Fatal(err)
		}
		stats := ScheduleStream(s.Next, m, factory, DefaultConfig(), 1, 0)
		if stats.Failed != 0 {
			b.Fatalf("%d of %d loops failed to schedule", stats.Failed, stats.Loops)
		}
	}
	b.ReportMetric(float64(b.N*2000)/b.Elapsed().Seconds(), "loops/s")
}
