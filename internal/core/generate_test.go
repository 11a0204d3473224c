package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// cydra5ClassMatrix returns the class-level forbidden-latency matrix of
// the Cydra 5, the input GeneratingSet sees in a reduction.
func cydra5ClassMatrix() *forbidden.Matrix {
	m := forbidden.Compute(machines.Cydra5().Expand())
	return m.Collapse(m.ComputeClasses())
}

// TestGeneratingSetBoundedRows: on a sparse machine with a long span the
// compatibility rows stay within the size of F. The machine has 40
// classes over span 4096, i.e. 163,840 usage vertices, so a full
// vertex-by-vertex compatibility table would take 3.1 GiB; the
// generating set must be built within a 16 MiB allocation budget (it
// takes about 3.4 MB).
func TestGeneratingSetBoundedRows(t *testing.T) {
	const ops, span = 40, 4096
	b := resmodel.NewBuilder("sparse-long")
	b.Resources("bus")
	for i := 0; i < ops; i++ {
		b.Resources(fmt.Sprintf("own%d", i))
	}
	for i := 0; i < ops; i++ {
		b.Op(fmt.Sprintf("op%d", i), 1).
			Use(fmt.Sprintf("own%d", i), 0).
			Use(fmt.Sprintf("own%d", i), span-1-i).
			Use("bus", 100*i)
	}
	e := b.Build().Expand()
	m := forbidden.Compute(e)
	cm := m.Collapse(m.ComputeClasses())
	if cm.NumOps < 32 || cm.Span < 4096 {
		t.Fatalf("machine has %d classes over span %d, want >= 32 over >= 4096", cm.NumOps, cm.Span)
	}
	if v := int64(cm.NumOps) * int64(cm.Span); v*v/8 <= 2<<30 {
		t.Fatalf("full compatibility table would take %d bytes, want > 2 GiB", v*v/8)
	}

	const budget = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen := GeneratingSet(cm, nil)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > budget {
		t.Errorf("GeneratingSet allocated %d bytes, budget %d", d, budget)
	}
	if len(gen) == 0 {
		t.Fatal("empty generating set")
	}
	if err := Reduce(e, Objective{Kind: ResUses}).Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratingSetAllocs pins the allocation count of one generating set
// of the Cydra 5 class matrix (461,700 with the slice-based antichain).
func TestGeneratingSetAllocs(t *testing.T) {
	cm := cydra5ClassMatrix()
	const limit = 20000
	if n := testing.AllocsPerRun(3, func() { GeneratingSet(cm, nil) }); n > limit {
		t.Errorf("GeneratingSet(Cydra 5) = %.0f allocs, want <= %d", n, limit)
	}
}

// TestGeneratingSetTracedAllocs bounds a traced generating set of the
// Cydra 5 class matrix (3,049 pairs, 236,240 steps): the trace records
// one Resource per resource version and shares it between steps and
// per-pair sets, where rendering every step and set as strings took
// about 10.8 million allocations.
func TestGeneratingSetTracedAllocs(t *testing.T) {
	cm := cydra5ClassMatrix()
	const limit = 100000
	n := testing.AllocsPerRun(1, func() {
		var tr Trace
		GeneratingSet(cm, &tr)
	})
	if n > limit {
		t.Errorf("traced GeneratingSet(Cydra 5) = %.0f allocs, want <= %d", n, limit)
	}
}

var genSink []*Resource

func BenchmarkGeneratingSetCydra5(b *testing.B) {
	cm := cydra5ClassMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		genSink = GeneratingSet(cm, nil)
	}
}
