package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/forbidden"
	"repro/internal/obs"
	"repro/internal/resmodel"
)

// Result is a complete reduction of a machine description.
type Result struct {
	// Input is the expanded machine the reduction started from.
	Input *resmodel.Expanded
	// Matrix is the forbidden-latency matrix of the input (per expanded op).
	Matrix *forbidden.Matrix
	// Classes partitions the input's operations into operation classes.
	Classes *forbidden.Classes
	// ClassMatrix is the matrix restricted to class representatives.
	ClassMatrix *forbidden.Matrix
	// Objective is the selection objective that was minimized.
	Objective Objective
	// GenSetSize and PrunedSize count the generating set before and after
	// pruning.
	GenSetSize, PrunedSize int
	// Selected lists the synthesized resources with their chosen usages.
	Selected []Selected
	// ResourceNames names the synthesized resources ("q0", "q1", ...).
	ResourceNames []string
	// ClassTables holds the reduced reservation table of each operation
	// class, over the synthesized resources.
	ClassTables []resmodel.Table
	// ReducedClass is the reduced machine with one operation per class.
	ReducedClass *resmodel.Expanded
	// Reduced is the reduced machine with one operation per input operation
	// (each op carries its class's reduced table); AltGroup mirrors the
	// input so check-with-alt keeps working.
	Reduced *resmodel.Expanded
	// Trace, when requested, records the generating-set construction.
	Trace *Trace

	// Verification is expensive (it recomputes two forbidden-latency
	// matrices) and its outcome is immutable, so it runs once per Result;
	// cached Results (see Cache) therefore skip re-verification for free.
	verifyOnce sync.Once
	verifyErr  error
}

// Reduce runs the full three-step reduction of the paper on an expanded
// machine description.
func Reduce(e *resmodel.Expanded, obj Objective) *Result {
	return reduce(e, obj, false)
}

// ReduceTraced is Reduce with Figure-3-style trace collection enabled.
func ReduceTraced(e *resmodel.Expanded, obj Objective) *Result {
	return reduce(e, obj, true)
}

func reduce(e *resmodel.Expanded, obj Objective, traced bool) *Result {
	if err := obj.Validate(); err != nil {
		panic(err)
	}
	r := &Result{Input: e, Objective: obj}

	// Per-stage wall-time histograms (µs) live under core.stage.*, a scope
	// determinism tests exclude: durations vary run to run, unlike the
	// core.* totals above them.
	metered := obs.Enabled()
	var stage obs.Scope
	var stageStart time.Time
	if metered {
		stage = obs.Default().Scope("core").Scope("stage")
		stageStart = time.Now()
	}
	endStage := func(name string) {
		if metered {
			now := time.Now()
			stage.Histogram(name).Observe(now.Sub(stageStart).Microseconds())
			stageStart = now
		}
	}

	r.Matrix = forbidden.Compute(e)
	r.Classes = r.Matrix.ComputeClasses()
	r.ClassMatrix = r.Matrix.Collapse(r.Classes)
	endStage("fmatrix")

	var tr *Trace
	if traced {
		tr = &Trace{OpName: func(c int) string {
			return e.Ops[r.Classes.Rep[c]].Name
		}}
	}
	gen := GeneratingSet(r.ClassMatrix, tr)
	r.Trace = tr
	r.GenSetSize = len(gen)
	endStage("genset")
	pruned := Prune(r.ClassMatrix, gen)
	r.PrunedSize = len(pruned)
	endStage("prune")
	r.Selected = SelectCover(r.ClassMatrix, pruned, obj)
	endStage("select")
	if metered {
		s := obs.Default().Scope("core")
		s.Counter("reductions").Inc()
		s.Histogram("genset_size").Observe(int64(r.GenSetSize))
		s.Histogram("genset_pruned").Observe(int64(r.PrunedSize))
		s.Histogram("selected_resources").Observe(int64(len(r.Selected)))
	}

	// Build the reduced reservation tables, one per class.
	numClasses := r.Classes.NumClasses()
	r.ClassTables = make([]resmodel.Table, numClasses)
	for si, sel := range r.Selected {
		r.ResourceNames = append(r.ResourceNames, fmt.Sprintf("q%d", si))
		for _, u := range sel.Uses {
			r.ClassTables[u.Op].Uses = append(r.ClassTables[u.Op].Uses,
				resmodel.Usage{Resource: si, Cycle: u.Cycle})
		}
	}
	for i := range r.ClassTables {
		r.ClassTables[i].Normalize()
	}

	// Class-level reduced machine.
	r.ReducedClass = &resmodel.Expanded{
		Name:      e.Name + ".reduced.classes",
		Resources: append([]string(nil), r.ResourceNames...),
	}
	for ci := 0; ci < numClasses; ci++ {
		rep := r.Classes.Rep[ci]
		r.ReducedClass.Ops = append(r.ReducedClass.Ops, resmodel.ExpandedOp{
			Name:    e.Ops[rep].Name,
			Orig:    ci,
			Latency: e.Ops[rep].Latency,
			Table:   r.ClassTables[ci].Clone(),
		})
		r.ReducedClass.AltGroup = append(r.ReducedClass.AltGroup, []int{ci})
	}

	// Per-operation reduced machine, mirroring the input's alt structure.
	r.Reduced = &resmodel.Expanded{
		Name:      e.Name + ".reduced",
		Resources: append([]string(nil), r.ResourceNames...),
		Source:    e.Source,
	}
	for oi, o := range e.Ops {
		r.Reduced.Ops = append(r.Reduced.Ops, resmodel.ExpandedOp{
			Name:    o.Name,
			Orig:    o.Orig,
			Alt:     o.Alt,
			Latency: o.Latency,
			Table:   r.ClassTables[r.Classes.OfOp[oi]].Clone(),
		})
	}
	for _, g := range e.AltGroup {
		r.Reduced.AltGroup = append(r.Reduced.AltGroup, append([]int(nil), g...))
	}
	return r
}

// Verify recomputes the forbidden-latency matrix of the reduced machine
// description and checks that it is exactly the matrix of the original —
// the paper's correctness criterion ("querying for resource contentions
// using either the original or reduced machine descriptions yields the
// same answer"). It checks both the per-operation and the class-level
// reduced machines. The check runs once per Result and is memoized:
// repeated calls (including via the reduction cache) return the recorded
// outcome without recomputation.
func (r *Result) Verify() error {
	r.verifyOnce.Do(func() { r.verifyErr = r.verify() })
	return r.verifyErr
}

func (r *Result) verify() error {
	got := forbidden.Compute(r.Reduced)
	if d := got.Diff(r.Matrix, r.Input); d != "" {
		return fmt.Errorf("core: reduced description changes scheduling constraints: %s", d)
	}
	gotC := forbidden.Compute(r.ReducedClass)
	if d := gotC.Diff(r.ClassMatrix, r.ReducedClass); d != "" {
		return fmt.Errorf("core: class-level reduced description changes scheduling constraints: %s", d)
	}
	return nil
}

// NumResources returns the number of synthesized resources in the reduced
// description.
func (r *Result) NumResources() int { return len(r.Selected) }

// NumUsages returns the total number of resource usages over the reduced
// class tables.
func (r *Result) NumUsages() int {
	n := 0
	for _, t := range r.ClassTables {
		n += len(t.Uses)
	}
	return n
}
