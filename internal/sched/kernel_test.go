package sched

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/loopgen"
	"repro/internal/machines"
)

func TestKernelDotProduct(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	g := dotProduct(t, m)
	r := Schedule(g, m, discreteFactory(e), DefaultConfig())
	if !r.OK {
		t.Fatal("schedule failed")
	}
	k, err := BuildKernel(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if k.II != r.II {
		t.Errorf("kernel II = %d, want %d", k.II, r.II)
	}
	// Every node appears exactly once across the kernel rows.
	seen := map[int]bool{}
	for _, row := range k.Rows {
		for _, op := range row {
			if seen[op.Node] {
				t.Errorf("node %d appears twice in kernel", op.Node)
			}
			seen[op.Node] = true
			if op.Stage != r.Time[op.Node]/r.II {
				t.Errorf("node %d stage = %d, want %d", op.Node, op.Stage, r.Time[op.Node]/r.II)
			}
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Errorf("kernel holds %d nodes, want %d", len(seen), len(g.Nodes))
	}
	// The memory latency (22) forces multiple stages.
	if k.Stages < 2 {
		t.Errorf("Stages = %d, want >= 2 for a 22-cycle load latency", k.Stages)
	}
	out := k.Render(g, 10)
	for _, want := range []string{"II=", "cycle", "prologue"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Steady-state overlap is resource- and dependence-correct for many
	// iterations.
	f := forbidden.Compute(e)
	if err := ValidateOverlap(g, e, f, r, 8); err != nil {
		t.Fatalf("ValidateOverlap: %v", err)
	}
	// Both loads on one port in one cycle contend in every iteration.
	bad := r
	bad.Time = append([]int(nil), r.Time...)
	bad.Alt = append([]int(nil), r.Alt...)
	bad.Time[2], bad.Alt[2] = bad.Time[1], bad.Alt[1]
	if ValidateOverlap(g, e, f, bad, 8) == nil {
		t.Error("overlap contention not caught")
	}
}

func TestBuildKernelFailedSchedule(t *testing.T) {
	g := &ddg.Graph{Name: "x", Nodes: []ddg.Node{{Op: 0}}}
	if _, err := BuildKernel(g, Result{}); err == nil {
		t.Fatal("failed schedule accepted")
	}
}

// Property: for random benchmark loops, the flattened overlapped
// execution of the modulo schedule is contention-free and
// dependence-correct on the ORIGINAL machine description.
func TestQuickOverlapValid(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	f := forbidden.Compute(e)
	prop := func(seed int64) bool {
		cfg := loopgen.Default()
		cfg.Seed = seed
		cfg.Loops = 2
		loops, err := loopgen.Generate(m, cfg)
		if err != nil {
			return false
		}
		for _, g := range loops {
			r := Schedule(g, m, discreteFactory(e), DefaultConfig())
			if !r.OK {
				return false
			}
			if ValidateOverlap(g, e, f, r, 5) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestNamedKernelsSchedule: every named Livermore-style kernel software-
// pipelines at its MII on the Cydra 5, identically across original and
// reduced descriptions, with valid steady-state overlap.
func TestNamedKernelsSchedule(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	f := forbidden.Compute(e)
	red := core.Reduce(e, core.Objective{Kind: core.ResUses})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	ks, err := loopgen.ParseKernels(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range loopgen.Kernels() {
		g := ks[i]
		r1 := Schedule(g, m, discreteFactory(e), DefaultConfig())
		r2 := Schedule(g, m, discreteFactory(red.Reduced), DefaultConfig())
		if !r1.OK || !r2.OK {
			t.Fatalf("%s: scheduling failed", k.Name)
		}
		if r1.II != r2.II {
			t.Fatalf("%s: II differs across descriptions: %d vs %d", k.Name, r1.II, r2.II)
		}
		for v := range r1.Time {
			if r1.Time[v] != r2.Time[v] {
				t.Fatalf("%s: schedules differ at node %d", k.Name, v)
			}
		}
		if err := Certify(g, e, f, r1); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if err := ValidateOverlap(g, e, f, r1, 6); err != nil {
			t.Fatalf("%s: overlap: %v", k.Name, err)
		}
		if r1.II != r1.MII {
			t.Logf("%s: II %d > MII %d (acceptable, logged)", k.Name, r1.II, r1.MII)
		}
	}
}
