package tables

import (
	"strings"
	"testing"

	"repro/internal/machines"
)

func TestComputeReductionExample(t *testing.T) {
	r := ComputeReduction(machines.Example())
	if r.Classes != 2 || r.ForbiddenL != 6 || r.MaxLatency != 3 {
		t.Fatalf("example stats: %d classes %d FLs max %d", r.Classes, r.ForbiddenL, r.MaxLatency)
	}
	if r.Rows[0].NumResources != 5 {
		t.Errorf("original resources = %d", r.Rows[0].NumResources)
	}
	// Figure 1: 5 resources -> 2 under every objective.
	for _, row := range r.Rows[1:] {
		if row.NumResources != 2 {
			t.Errorf("%s: resources = %d, want 2", row.Label, row.NumResources)
		}
	}
	out := r.Render("Example")
	if !strings.Contains(out, "number of resources") || !strings.Contains(out, "res-uses") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

func TestReductionTablesForPaperMachines(t *testing.T) {
	for _, tc := range []struct {
		name         string
		maxReduced   int
		minUseFactor float64
	}{
		{"mips", 12, 2.0},
		{"alpha", 13, 1.8},
		{"cydra5-subset", 12, 2.5},
	} {
		r := ComputeReduction(machines.ByName(tc.name))
		orig, disc := r.Rows[0], r.Rows[1]
		if disc.NumResources > tc.maxReduced {
			t.Errorf("%s: reduced to %d resources, want <= %d", tc.name, disc.NumResources, tc.maxReduced)
		}
		if orig.AvgUses/disc.AvgUses < tc.minUseFactor {
			t.Errorf("%s: usage reduction factor %.2f, want >= %.1f",
				tc.name, orig.AvgUses/disc.AvgUses, tc.minUseFactor)
		}
		// Word usage must improve monotonically toward wider words.
		last := r.Rows[len(r.Rows)-1]
		if last.AvgWordUses > orig.AvgWordUses {
			t.Errorf("%s: widest word column (%s) word uses %.2f > original %.2f",
				tc.name, last.Label, last.AvgWordUses, orig.AvgWordUses)
		}
		ms := r.Memory()
		if ms.QuerySpeedupWords < 2 {
			t.Errorf("%s: word-usage speedup %.2f, want >= 2 (paper: 4-7x)", tc.name, ms.QuerySpeedupWords)
		}
		if ms.StatePct > 100 {
			t.Errorf("%s: state memory %.0f%% of original", tc.name, ms.StatePct)
		}
	}
}

func TestTable5(t *testing.T) {
	m := machines.Cydra5()
	loops := BenchmarkLoops(m)
	if len(loops) != 1327 {
		t.Fatalf("benchmark loops = %d", len(loops))
	}
	t5 := ComputeTable5(m, loops[:300], 6, 1)
	if t5.Ops.Min < 2 || t5.Ops.Avg < 10 {
		t.Errorf("ops dist wrong: %+v", t5.Ops)
	}
	if t5.IIOverMII.Min != 1 || t5.IIOverMII.PctAtMin < 80 {
		t.Errorf("II/MII dist wrong: %+v", t5.IIOverMII)
	}
	if t5.DecisionsPerOp.Max > 6.0+1e-9 {
		t.Errorf("decisions/op max %.2f exceeds budget ratio", t5.DecisionsPerOp.Max)
	}
	out := t5.Render()
	if !strings.Contains(out, "II / MII") || !strings.Contains(out, "sched. decisions") {
		t.Errorf("render missing rows:\n%s", out)
	}
}

func TestTable6SmallRun(t *testing.T) {
	m := machines.Cydra5()
	loops := BenchmarkLoops(m)[:120]
	reps := PaperRepresentations(m)
	if len(reps) < 4 {
		t.Fatalf("representations = %d", len(reps))
	}
	t6 := ComputeTable6(m, loops, reps, 1)
	if len(t6.Weighted) != len(reps) {
		t.Fatalf("weighted columns = %d", len(t6.Weighted))
	}
	// The reduced representations must beat the original, and the widest
	// word must beat the discrete reduction (the paper's 3.46 -> 1.21).
	first, discrete, last := t6.Weighted[0], t6.Weighted[1], t6.Weighted[len(t6.Weighted)-1]
	if discrete >= first {
		t.Errorf("discrete reduction (%.2f) not better than original (%.2f)", discrete, first)
	}
	if last >= discrete {
		t.Errorf("bitvector (%.2f) not better than discrete (%.2f)", last, discrete)
	}
	if first/last < 1.8 {
		t.Errorf("query-module speedup %.2f, want >= 1.8 (paper: 2.9)", first/last)
	}
	if t6.ChecksPerDecision < 1 {
		t.Errorf("checks/decision = %.2f", t6.ChecksPerDecision)
	}
	if t6.Rows[0].Freq < 50 {
		t.Errorf("check frequency = %.1f%%, want dominant", t6.Rows[0].Freq)
	}
	out := t6.Render()
	for _, want := range []string{"check", "assign&free", "free", "weighted sum", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigures(t *testing.T) {
	f1 := Figure1()
	for _, want := range []string{"F[B][A] = {1}", "resources: 5 -> 2", "B@0, B@1, B@2, B@3"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
	f3 := Figure3()
	for _, want := range []string{"a) process 1 in F[B][A]", "Rule 3", "Rule 1", "{B@0, A@1}"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
	f4 := Figure4()
	for _, want := range []string{"a) Original machine description", "b) Discrete", "c) Bitvector"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure4 missing %q", want)
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary()
	for _, want := range []string{"mips", "alpha", "cydra5", "words/check"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestMemoryTable(t *testing.T) {
	rows := ComputeMemory([]string{"mips", "cydra5"}, 24)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RedBitvector >= r.OrigDiscrete {
			t.Errorf("%s: bitvector state (%d B) not smaller than original discrete (%d B)",
				r.Machine, r.RedBitvector, r.OrigDiscrete)
		}
		if r.CyclesPerWord < 2 {
			t.Errorf("%s: cycles/word = %d, want >= 2", r.Machine, r.CyclesPerWord)
		}
	}
	out := RenderMemory(rows)
	if !strings.Contains(out, "cydra5") || !strings.Contains(out, "c/w") {
		t.Errorf("render missing content:\n%s", out)
	}
	if RenderMemory(nil) != "" {
		t.Errorf("empty render not empty")
	}
}

func TestKernelsReport(t *testing.T) {
	rows, err := ComputeKernels(machines.Cydra5(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.II < r.ResMII || r.II < r.RecMII {
			t.Errorf("%s: II %d below MII bounds (%d, %d)", r.Name, r.II, r.ResMII, r.RecMII)
		}
		if r.Stages < 1 {
			t.Errorf("%s: stages = %d", r.Name, r.Stages)
		}
	}
	out := RenderKernels(rows)
	for _, want := range []string{"daxpy", "tridiag", "RecMII", "stages"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
