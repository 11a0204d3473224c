package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/resmodel"
)

// Kernel is the flat form of a software-pipelined loop: the steady-state
// kernel of II cycles in which every operation appears once (tagged with
// its stage), plus the prologue and epilogue that fill and drain the
// pipeline. On the Cydra 5 the prologue/epilogue are folded into the
// kernel by predicated execution under the ICR rotating predicates; the
// flat form below is the machine-independent rendering.
type Kernel struct {
	II     int
	Stages int // number of overlapped iterations in steady state
	// Rows[c] lists the operations issuing in kernel cycle c; Stage says
	// which iteration (relative to the newest) each belongs to.
	Rows [][]KernelOp
}

// KernelOp is one operation instance in the kernel.
type KernelOp struct {
	Node  int // index into the loop's nodes
	Alt   int // expanded-op placed
	Stage int // floor(schedule time / II)
}

// BuildKernel folds a modulo schedule into its kernel.
func BuildKernel(g *ddg.Graph, r Result) (*Kernel, error) {
	if !r.OK {
		return nil, fmt.Errorf("sched: cannot build a kernel from a failed schedule")
	}
	k := &Kernel{II: r.II, Rows: make([][]KernelOp, r.II)}
	for v := range g.Nodes {
		t := r.Time[v]
		stage := t / r.II
		if stage+1 > k.Stages {
			k.Stages = stage + 1
		}
		row := t % r.II
		k.Rows[row] = append(k.Rows[row], KernelOp{Node: v, Alt: r.Alt[v], Stage: stage})
	}
	for _, row := range k.Rows {
		sort.Slice(row, func(i, j int) bool {
			if row[i].Stage != row[j].Stage {
				return row[i].Stage < row[j].Stage
			}
			return row[i].Node < row[j].Node
		})
	}
	return k, nil
}

// Render prints the kernel with its prologue and epilogue for a loop
// executing `trip` iterations (trip >= Stages). Iteration i's operation at
// stage s executes in absolute cycle i*II + (schedule time), so the
// prologue covers cycles before the first full kernel, the kernel repeats
// trip-Stages+1 times, and the epilogue drains the last Stages-1
// iterations.
func (k *Kernel) Render(g *ddg.Graph, trip int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "software-pipelined kernel: II=%d, %d stage(s)\n", k.II, k.Stages)
	for c, row := range k.Rows {
		fmt.Fprintf(&b, "  cycle %2d:", c)
		if len(row) == 0 {
			b.WriteString("  (empty)")
		}
		for _, op := range row {
			fmt.Fprintf(&b, "  %s[i-%d]", g.Nodes[op.Node].Name, op.Stage)
		}
		b.WriteByte('\n')
	}
	if trip >= k.Stages && k.Stages > 1 {
		fmt.Fprintf(&b, "prologue: %d cycles (pipeline fill), kernel executed %d time(s), epilogue: %d cycles (drain)\n",
			(k.Stages-1)*k.II, trip-k.Stages+1, (k.Stages-1)*k.II)
	}
	return b.String()
}

// Expand lays out the first `iters` iterations of the pipelined loop as a
// flat (iteration, node, cycle) trace — primarily for validating that the
// kernel's overlapped execution is exactly the modulo schedule repeated
// every II cycles.
func (k *Kernel) Expand(g *ddg.Graph, r Result, iters int) []FlatOp {
	var out []FlatOp
	for i := 0; i < iters; i++ {
		for v := range g.Nodes {
			out = append(out, FlatOp{Iteration: i, Node: v, Alt: r.Alt[v], Cycle: i*r.II + r.Time[v]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cycle != out[b].Cycle {
			return out[a].Cycle < out[b].Cycle
		}
		if out[a].Iteration != out[b].Iteration {
			return out[a].Iteration < out[b].Iteration
		}
		return out[a].Node < out[b].Node
	})
	return out
}

// FlatOp is one operation instance of the flattened pipelined execution.
type FlatOp struct {
	Iteration int
	Node      int
	Alt       int
	Cycle     int
}

// ValidateOverlap certifies r against f (Certify, whose modulo dependence
// check covers every pair of iterations), then checks the flattened
// execution of `iters` overlapped iterations as one linear schedule — the
// end-to-end proof that the kernel's steady state is resource-correct
// beyond the MRT abstraction.
func ValidateOverlap(g *ddg.Graph, e *resmodel.Expanded, f *forbidden.Matrix, r Result, iters int) error {
	if err := Certify(g, e, f, r); err != nil {
		return err
	}
	k, _ := BuildKernel(g, r) // fails only on !r.OK, which Certify rejected
	flat := k.Expand(g, r, iters)
	alts, cycles := make([]int, len(flat)), make([]int, len(flat))
	for x, op := range flat {
		alts[x], cycles[x] = op.Alt, op.Cycle
	}
	if i, j, _, found := f.Collision(alts, cycles, 0); found {
		a, b := flat[i], flat[j]
		return fmt.Errorf("sched: overlap violation: iteration %d node %d (%s) and iteration %d node %d (%s) contend at absolute cycles %d and %d",
			a.Iteration, a.Node, g.Nodes[a.Node].Name, b.Iteration, b.Node, g.Nodes[b.Node].Name, a.Cycle, b.Cycle)
	}
	return nil
}
