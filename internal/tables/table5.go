package tables

import (
	"fmt"
	"strings"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// Dist summarizes a per-loop statistic the way Table 5 does: minimum,
// the fraction of samples at the minimum, the average, and the maximum.
type Dist struct {
	Min      float64
	PctAtMin float64
	Avg      float64
	Max      float64
}

func computeDist(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	d := Dist{Min: samples[0], Max: samples[0]}
	sum := 0.0
	for _, s := range samples {
		if s < d.Min {
			d.Min = s
		}
		if s > d.Max {
			d.Max = s
		}
		sum += s
	}
	at := 0
	for _, s := range samples {
		if s < d.Min+1e-9 {
			at++
		}
	}
	d.PctAtMin = 100 * float64(at) / float64(len(samples))
	d.Avg = sum / float64(len(samples))
	return d
}

func (d Dist) String() string {
	return fmt.Sprintf("%8.2f %7.1f%% %8.2f %8.2f", d.Min, d.PctAtMin, d.Avg, d.Max)
}

// Table5 reproduces "Characteristics of the 1327 loop benchmark".
type Table5 struct {
	BudgetRatio    int
	Loops          int
	Ops            Dist // operations per loop iteration
	II             Dist // initiation interval
	IIOverMII      Dist
	DecisionsPerOp Dist // per loop AND per attempt, like the paper
	// ExceededPct is the fraction of attempts that ran out of budget.
	ExceededPct float64
	// NoReversalPct is the fraction of loops with no reversed decision.
	NoReversalPct float64
}

// ComputeTable5 schedules the benchmark with the given budget ratio and
// summarizes it. The query module is the original discrete description
// (the representation does not change any schedule, so the statistics are
// representation-independent). The loops are fanned across a bounded
// worker pool (workers < 1 selects GOMAXPROCS); each worker schedules
// through its own arena of query modules over the shared read-only
// expanded description, and the per-loop results are merged in loop
// order, so the rendered table is byte-identical at every worker count.
func ComputeTable5(m *resmodel.Machine, loops []*ddg.Graph, budgetRatio, workers int) *Table5 {
	e := m.Expand()
	results := sched.ScheduleBatch(loops, m,
		func(ii int) query.Module { return query.NewDiscrete(e, ii) },
		sched.Config{BudgetRatio: budgetRatio}, workers)

	t := &Table5{BudgetRatio: budgetRatio, Loops: len(loops)}
	var ops, iis, ratios, decPerOp []float64
	attempts, exceeded, noRev := 0, 0, 0
	for i, g := range loops {
		r := results[i]
		if !r.OK {
			panic(fmt.Sprintf("tables: %s failed to schedule", g.Name))
		}
		n := float64(len(g.Nodes))
		ops = append(ops, n)
		iis = append(iis, float64(r.II))
		ratios = append(ratios, float64(r.II)/float64(r.MII))
		for _, d := range r.AttemptDecisions {
			decPerOp = append(decPerOp, float64(d)/n)
		}
		attempts += r.Attempts
		exceeded += r.BudgetExceeded
		if r.Reversed == 0 {
			noRev++
		}
	}
	t.Ops = computeDist(ops)
	t.II = computeDist(iis)
	t.IIOverMII = computeDist(ratios)
	t.DecisionsPerOp = computeDist(decPerOp)
	if attempts > 0 {
		t.ExceededPct = 100 * float64(exceeded) / float64(attempts)
	}
	t.NoReversalPct = 100 * float64(noRev) / float64(len(loops))
	return t
}

// Render lays Table 5 out in the paper's format.
func (t *Table5) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Characteristics of the %d loop benchmark (budget %dN)\n\n", t.Loops, t.BudgetRatio)
	fmt.Fprintf(&b, "%-28s %8s %8s %8s %8s\n", "measurement:", "min", "% at min", "avg", "max")
	fmt.Fprintf(&b, "%-28s %s\n", "number of operations", t.Ops)
	fmt.Fprintf(&b, "%-28s %s\n", "initiation interval (II)", t.II)
	fmt.Fprintf(&b, "%-28s %s\n", "II / MII", t.IIOverMII)
	fmt.Fprintf(&b, "%-28s %s\n", "sched. decisions / operation", t.DecisionsPerOp)
	fmt.Fprintf(&b, "\nattempts exceeding the %dN budget: %.1f%%; loops with no reversed decision: %.1f%%\n",
		t.BudgetRatio, t.ExceededPct, t.NoReversalPct)
	return b.String()
}

// BenchmarkLoops generates the paper's loop benchmark for the machine.
func BenchmarkLoops(m *resmodel.Machine) []*ddg.Graph {
	loops, err := loopgen.Generate(m, loopgen.Default())
	if err != nil {
		panic(err)
	}
	return loops
}
