package ddg

import (
	"math/rand"
	"testing"

	"repro/internal/machines"
	"repro/internal/resmodel"
)

// denseResMII is the dense ResMII the sparse walk replaced: every
// alternative fills a full per-resource count vector from its usage list
// and every resource's load is scanned for the maximum.
func denseResMII(g *Graph, m *resmodel.Machine) int {
	nr := len(m.Resources)
	load, us, best := make([]int, nr), make([]int, nr), make([]int, nr)
	for _, node := range g.Nodes {
		bestMax := int(^uint(0) >> 1)
		for i := range best {
			best[i] = 0
		}
		for _, alt := range m.Ops[node.Op].Alts {
			for i := range us {
				us[i] = 0
			}
			for _, u := range alt.Uses {
				us[u.Resource]++
			}
			mx := 0
			for r, u := range us {
				if l := load[r] + u; l > mx {
					mx = l
				}
			}
			if mx < bestMax {
				bestMax = mx
				copy(best, us)
			}
		}
		for r, u := range best {
			load[r] += u
		}
	}
	mii := 1
	for _, l := range load {
		if l > mii {
			mii = l
		}
	}
	return mii
}

// TestResMIISparseMatchesDense checks the sparse ResMII against the
// dense oracle on the built-in machines and on random ones, with random
// loop bodies over each machine's operations. One scratch serves every machine and graph, so a
// count the sparse walk failed to clear would leak into a later answer.
func TestResMIISparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	var ms []*resmodel.Machine
	for _, name := range machines.Names() {
		ms = append(ms, machines.ByName(name))
	}
	cfg := resmodel.DefaultRandomConfig()
	cfg.AltProb = 0.5
	for i := 0; i < 300; i++ {
		ms = append(ms, resmodel.Random(rng, cfg))
	}
	var s MIIScratch
	for mi, m := range ms {
		var uc UsageCounter = MachineUsage{M: m}
		for gi := 0; gi < 8; gi++ {
			g := randomGraph(rng, 1+rng.Intn(40))
			for v := range g.Nodes {
				g.Nodes[v].Op = rng.Intn(len(m.Ops))
			}
			want := denseResMII(g, m)
			if got := s.ResMII(g, uc); got != want {
				t.Fatalf("machine %d (%s) graph %d: sparse ResMII = %d, dense = %d", mi, m.Name, gi, got, want)
			}
		}
	}
}
