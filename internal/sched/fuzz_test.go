package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// The fuzz byte format encodes a small machine followed by a small
// dependence graph, both in the sparse regime the corpus occupies: up
// to 5 resources, 5 operations with at most 2 alternatives, 6 usages
// per alternative with cycles in [0, 6); up to 5 graph nodes and 8
// edges with delays in [0, 6) and distances in [0, 3). Layout:
//
//	[nRes-1] [nOps-1] then per op:
//	  [latency] [altSel] then per alternative:
//	    [nUses] then nUses × ([resource] [cycle])
//	[nNodes-1] then nNodes × [op]
//	[nEdges] then nEdges × ([from] [to] [delay] [dist])
//
// Every byte is reduced modulo its field's range; truncated input reads
// as zero, so all byte strings decode. Graphs rejected by ddg.Validate
// (zero-distance cycles) are skipped, not failures.
const (
	schedFuzzMaxRes   = 5
	schedFuzzMaxOps   = 5
	schedFuzzMaxUses  = 6
	schedFuzzMaxCyc   = 6
	schedFuzzMaxNodes = 5
	schedFuzzMaxEdges = 8
)

type schedFuzzReader struct {
	data []byte
	pos  int
}

func (r *schedFuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func schedFuzzDecode(data []byte) (*resmodel.Machine, *ddg.Graph) {
	r := &schedFuzzReader{data: data}
	nRes := 1 + int(r.next())%schedFuzzMaxRes
	nOps := 1 + int(r.next())%schedFuzzMaxOps
	m := &resmodel.Machine{Name: "fuzz"}
	for i := 0; i < nRes; i++ {
		m.Resources = append(m.Resources, fmt.Sprintf("r%d", i))
	}
	for o := 0; o < nOps; o++ {
		op := resmodel.Operation{Name: fmt.Sprintf("op%d", o), Latency: int(r.next() % 8)}
		nAlts := 1
		if r.next()%4 == 0 {
			nAlts = 2
		}
		for a := 0; a < nAlts; a++ {
			var t resmodel.Table
			nUses := int(r.next()) % (schedFuzzMaxUses + 1)
			for u := 0; u < nUses; u++ {
				t.Uses = append(t.Uses, resmodel.Usage{
					Resource: int(r.next()) % nRes,
					Cycle:    int(r.next()) % schedFuzzMaxCyc,
				})
			}
			t.Normalize()
			op.Alts = append(op.Alts, t)
		}
		m.Ops = append(m.Ops, op)
	}
	if m.Validate() != nil {
		return nil, nil
	}
	n := 1 + int(r.next())%schedFuzzMaxNodes
	g := &ddg.Graph{Name: "fuzz", Nodes: make([]ddg.Node, n)}
	for v := 0; v < n; v++ {
		g.Nodes[v].Op = int(r.next()) % nOps
	}
	for k := int(r.next()) % (schedFuzzMaxEdges + 1); k > 0; k-- {
		g.Edges = append(g.Edges, ddg.Edge{
			From:  int(r.next()) % n,
			To:    int(r.next()) % n,
			Delay: int(r.next()) % 6,
			Dist:  int(r.next()) % 3,
		})
	}
	if g.Validate() != nil {
		return nil, nil
	}
	return m, g
}

// FuzzOptimalNeverInvalid fuzzes the exact scheduler's safety
// contract over random tiny machines and dependence graphs: it never
// panics, any schedule it returns passes the F certifier (Certify)
// with II >= MII, its outcome flags are
// consistent (exactly one of Proven/Fallback), the range-scan and
// naive-scan runs are byte-identical, and a proven II never exceeds
// what the IMS heuristic achieves.
func FuzzOptimalNeverInvalid(f *testing.F) {
	// A two-alternative machine with a shared writeback bus feeding a
	// three-node recurrence, a self-loop, a dense single-resource
	// machine, and degenerate truncated input.
	f.Add([]byte{2, 2, 1, 0, 2, 0, 0, 1, 1, 2, 0, 1, 1, 1, 2, 3, 0, 1, 2, 1, 2, 2, 0, 1, 1, 0, 3, 1})
	f.Add([]byte{0, 0, 3, 1, 2, 0, 0, 0, 2, 0, 1, 0, 0, 4, 2})
	f.Add([]byte{0, 1, 5, 1, 1, 0, 3, 1, 1, 0, 1, 0, 0, 2, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, g := schedFuzzDecode(data)
		if m == nil {
			return
		}
		e := m.Expand()
		factory := func(ii int) query.Module { return query.NewDiscrete(e, ii) }
		cfg := DefaultOptimalConfig()
		cfg.MaxNodes = 512
		r := Optimal(g, m, factory, cfg)
		if r.Proven == r.Fallback {
			t.Fatalf("want exactly one of Proven/Fallback: %+v", r)
		}
		if r.OK {
			if r.II < r.MII {
				t.Fatalf("II %d below MII %d: %+v", r.II, r.MII, r)
			}
			if err := Certify(g, e, forbidden.Compute(e), r.Result); err != nil {
				t.Fatalf("schedule fails revalidation: %v\nresult %+v\nmachine %+v\ngraph %+v", err, r, m, g)
			}
		}
		if rn := Optimal(g, m, naiveFactory(factory), cfg); !reflect.DeepEqual(rn, r) {
			t.Fatalf("naive scan diverges\nrange: %+v\nnaive: %+v\nmachine %+v\ngraph %+v", r, rn, m, g)
		}
		ims := Schedule(g, m, factory, cfg.IMS)
		if r.Proven && ims.OK && r.II > ims.II {
			t.Fatalf("proven II %d worse than IMS II %d\nmachine %+v\ngraph %+v", r.II, ims.II, m, g)
		}
	})
}
