package loopgen

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machines"
)

func sameGraph(a, b *ddg.Graph) bool {
	return a.Name == b.Name &&
		reflect.DeepEqual(a.Nodes, b.Nodes) &&
		reflect.DeepEqual(a.Edges, b.Edges)
}

// TestStreamMatchesBatch pins the streamed corpus byte-identical to the
// batch API for the same configuration: two independent streams agree
// loop by loop, and GenerateStrata materializes exactly the stream's
// sequence.
func TestStreamMatchesBatch(t *testing.T) {
	m := machines.Cydra5()
	st := DefaultStrata(500)
	batch, err := GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 500 {
		t.Fatalf("GenerateStrata returned %d loops, want 500", len(batch))
	}
	s, err := NewStream(m, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		g, ok := s.Next()
		if !ok {
			if i != len(batch) {
				t.Fatalf("stream exhausted after %d loops, batch has %d", i, len(batch))
			}
			break
		}
		if !sameGraph(g, batch[i]) {
			t.Fatalf("loop %d: stream %q (%d nodes) != batch %q (%d nodes)",
				i, g.Name, len(g.Nodes), batch[i].Name, len(batch[i].Nodes))
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded another loop")
	}
}

// TestStreamFlatMemory streams a 100k-loop corpus, dropping each loop,
// and asserts the live heap stays bounded: the stream retains nothing,
// so a corpus 75x the paper's fits in flat memory. (Heap is sampled
// after forced GCs, measuring retention rather than allocator churn.)
func TestStreamFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-loop generation in -short mode")
	}
	m := machines.Cydra5()
	st := DefaultStrata(100_000)
	s, err := NewStream(m, st)
	if err != nil {
		t.Fatal(err)
	}
	const boundBytes = 64 << 20
	nodes := 0
	for i := 0; ; i++ {
		g, ok := s.Next()
		if !ok {
			if i != st.Loops {
				t.Fatalf("stream ended after %d loops, want %d", i, st.Loops)
			}
			break
		}
		nodes += len(g.Nodes)
		if i%25000 == 24999 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > boundBytes {
				t.Fatalf("after %d loops: %d bytes live, bound %d", i+1, ms.HeapAlloc, boundBytes)
			}
		}
	}
	if nodes < 4*st.Loops {
		t.Fatalf("corpus suspiciously small: %d ops over %d loops", nodes, st.Loops)
	}
}

// TestStrataValidation covers the configuration error paths.
func TestStrataValidation(t *testing.T) {
	m := machines.Cydra5()
	base := DefaultStrata(10)
	cases := []struct {
		name   string
		mutate func(*Strata)
	}{
		{"no-strata", func(s *Strata) { s.Strata = nil }},
		{"negative-loops", func(s *Strata) { s.Loops = -1 }},
		{"zero-weight", func(s *Strata) { s.Strata[0].Weight = 0 }},
		{"min-ops", func(s *Strata) { s.Strata[0].MinOps = 1 }},
		{"max-lt-min", func(s *Strata) { s.Strata[0].MaxOps = s.Strata[0].MinOps - 1 }},
		{"mem-den", func(s *Strata) { s.Strata[0].MemDen = 0 }},
	}
	for _, c := range cases {
		st := DefaultStrata(10)
		c.mutate(&st)
		if _, err := NewStream(m, st); err == nil {
			t.Errorf("%s: NewStream accepted invalid config", c.name)
		}
	}
	if _, err := NewStream(machines.MIPS(), base); err == nil {
		t.Error("NewStream accepted a machine without the benchmark ops")
	}
}
