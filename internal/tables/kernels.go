package tables

import (
	"fmt"
	"strings"

	"repro/internal/loopgen"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// KernelRow is one named kernel's scheduling outcome.
type KernelRow struct {
	Name      string
	Desc      string
	Ops       int
	ResMII    int
	RecMII    int
	II        int
	Stages    int
	Decisions int
}

// ComputeKernels software-pipelines the named Livermore/BLAS-style
// kernels on the machine (through the original description; reduced
// descriptions produce identical schedules). The per-kernel Schedule
// calls are fanned across a bounded worker pool (workers < 1 selects
// GOMAXPROCS). Rows come back in kernel order regardless of worker
// count; the first error in kernel order is reported.
func ComputeKernels(m *resmodel.Machine, workers int) ([]KernelRow, error) {
	e := m.Expand()
	ks, err := loopgen.ParseKernels(m)
	if err != nil {
		return nil, err
	}
	kernels := loopgen.Kernels()
	rows := make([]KernelRow, len(kernels))
	errs := make([]error, len(kernels))
	parallel.ForEach(len(kernels), parallel.Workers(workers), func(i int) {
		k := kernels[i]
		g := ks[i]
		r := sched.Schedule(g, m, func(ii int) query.Module {
			return query.NewDiscrete(e, ii)
		}, sched.DefaultConfig())
		if !r.OK {
			errs[i] = fmt.Errorf("tables: kernel %s failed to schedule", k.Name)
			return
		}
		kern, err := sched.BuildKernel(g, r)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = KernelRow{
			Name: k.Name, Desc: k.Desc, Ops: len(g.Nodes),
			ResMII: r.ResMII, RecMII: r.RecMII, II: r.II,
			Stages: kern.Stages, Decisions: r.Decisions,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderKernels lays out the kernel report.
func RenderKernels(rows []KernelRow) string {
	var b strings.Builder
	b.WriteString("Named kernels, software-pipelined on the Cydra 5\n\n")
	fmt.Fprintf(&b, "%-12s %4s %7s %7s %4s %7s %10s\n",
		"kernel", "ops", "ResMII", "RecMII", "II", "stages", "decisions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %4d %7d %7d %4d %7d %10d\n",
			r.Name, r.Ops, r.ResMII, r.RecMII, r.II, r.Stages, r.Decisions)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %s\n", r.Name, r.Desc)
	}
	return b.String()
}
