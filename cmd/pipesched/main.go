// Command pipesched software-pipelines a loop with Rau's Iterative Modulo
// Scheduler, issuing contention queries through the representation of your
// choice — the vehicle for seeing the paper's query module in action.
//
// Usage:
//
//	pipesched -machine cydra5 -loop myloop.ddg
//	pipesched -machine cydra5 -loop myloop.ddg -rep bitvector -reduce 4-cycle-word
//	pipesched -machine cydra5 -demo          # built-in dot-product loop
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
)

const demoLoop = `
loop dotprod
node addr aadd
node lda  ld.w
node ldb  ld.w
node mul  fmul.s
node acc  fadd.s
node test icmp
node br   brtop
edge addr addr delay 2 dist 1
edge addr lda delay 2
edge addr ldb delay 2
edge lda mul delay 22
edge ldb mul delay 22
edge mul acc delay 7
edge acc acc delay 6 dist 1
edge test br delay 1
`

func main() {
	var (
		machine  = flag.String("machine", "cydra5", "built-in machine: "+strings.Join(repro.BuiltinMachines(), ", "))
		loopFile = flag.String("loop", "", "loop dependence graph file (.ddg)")
		demo     = flag.Bool("demo", false, "schedule the built-in dot-product loop")
		rep      = flag.String("rep", "discrete", "reserved-table representation: discrete or bitvector")
		reduceTo = flag.String("reduce", "", "reduce the description first: res-uses or <k>-cycle-word")
		budget   = flag.Int("budget", 6, "scheduling-decision budget ratio")
		kern     = flag.Bool("kernel", false, "print the software-pipelined kernel with stages")
	)
	flag.Parse()

	m := repro.BuiltinMachine(*machine)
	if m == nil {
		fail("unknown machine %q", *machine)
	}

	var loopSrc string
	switch {
	case *demo:
		loopSrc = demoLoop
	case *loopFile != "":
		b, err := os.ReadFile(*loopFile)
		if err != nil {
			fail("%v", err)
		}
		loopSrc = string(b)
	default:
		fail("need -loop <file> or -demo")
	}
	g, err := repro.ParseLoop(loopSrc, m)
	if err != nil {
		fail("%v", err)
	}

	// Pick the description.
	desc := m.Expand()
	if *reduceTo != "" {
		obj, err := core.ParseObjective(*reduceTo)
		if err != nil {
			fail("%v", err)
		}
		red, err := repro.Reduce(m, obj)
		if err != nil {
			fail("%v", err)
		}
		desc = red.Reduced
		fmt.Printf("reduced description: %d -> %d resources (%v)\n",
			len(m.Resources), red.NumResources(), obj)
	}

	var factory repro.ModuleFactory
	switch *rep {
	case "discrete":
		factory = repro.DiscreteFactory(desc)
	case "bitvector":
		k := query.MaxCyclesPerWord(len(desc.Resources), 64)
		if k < 1 {
			fail("description has %d resources: too many for a 64-bit word", len(desc.Resources))
		}
		fmt.Printf("bitvector representation: %d cycles per 64-bit word\n", k)
		factory = repro.BitvectorFactory(desc, k, 64)
	default:
		fail("unknown representation %q", *rep)
	}

	r := repro.ModuloScheduleLoop(g, m, factory, repro.SchedConfig{BudgetRatio: *budget})
	if !r.OK {
		fail("scheduling failed (MII %d)", r.MII)
	}
	if err := repro.VerifyModuloSchedule(g, m.Expand(), r); err != nil {
		fail("schedule failed verification: %v", err)
	}

	fmt.Printf("\nloop %q: %d operations\n", g.Name, len(g.Nodes))
	fmt.Printf("MII = %d (ResMII %d, RecMII %d); achieved II = %d in %d attempt(s)\n",
		r.MII, r.ResMII, r.RecMII, r.II, r.Attempts)
	fmt.Printf("scheduling decisions: %d (%d reversed: %d resource, %d dependence)\n",
		r.Decisions, r.Reversed, r.ResourceEvictions, r.DepEvictions)

	fmt.Println("\nschedule (issue cycle, MRT column, operation):")
	order := make([]int, len(g.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if r.Time[order[i]] != r.Time[order[j]] {
			return r.Time[order[i]] < r.Time[order[j]]
		}
		return order[i] < order[j]
	})
	for _, v := range order {
		fmt.Printf("  t=%3d  col=%2d  %-10s (%s)\n",
			r.Time[v], r.Time[v]%r.II, g.Nodes[v].Name, desc.Ops[r.Alt[v]].Name)
	}
	fmt.Println("\nverification: schedule is dependence- and resource-correct on the original description")

	if *kern {
		k, err := repro.BuildKernel(g, r)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println()
		fmt.Print(k.Render(g, 100))
		if err := repro.ValidateOverlap(g, m.Expand(), r, 6); err != nil {
			fail("overlap validation: %v", err)
		}
		fmt.Println("overlap validation: 6 overlapped iterations are contention-free")
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pipesched: "+format+"\n", args...)
	os.Exit(1)
}
