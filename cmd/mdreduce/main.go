// Command mdreduce reduces a machine description: it reads an .mdl file
// (or a built-in machine), runs the paper's automated reduction, verifies
// that scheduling constraints are preserved exactly, and prints the
// reduced description with statistics.
//
// Usage:
//
//	mdreduce -machine cydra5 -objective res-uses
//	mdreduce -file mymachine.mdl -objective 4-cycle-word
//	mdreduce -machine mips -objective 2-cycle-word -stats-only
//	mdreduce -machine mips -metrics -     # reduction profile as JSON on stdout
//
// Reductions go through the process-wide content-keyed cache: asking for
// the same (machine content, objective) again — e.g. -exact after the
// main reduction — reuses the verified result instead of re-running
// reduce and Verify.
//
// -metrics FILE enables the observability layer and writes a validated
// JSON snapshot of the reduction's counters and histograms
// (generating-set sizes, branch-and-bound nodes, cache hits) to FILE;
// "-" writes the snapshot to stdout after the normal report.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/mdl"
	"repro/internal/obs"
)

func main() {
	var (
		file      = flag.String("file", "", "machine description file (.mdl)")
		machine   = flag.String("machine", "", "built-in machine: "+strings.Join(repro.BuiltinMachines(), ", "))
		objective = flag.String("objective", "res-uses", "res-uses or <k>-cycle-word")
		statsOnly = flag.Bool("stats-only", false, "print statistics without the reduced description")
		exact     = flag.Bool("exact", false, "also compute the optimal res-uses cover by branch and bound (small machines only)")
		metrics   = flag.String("metrics", "", "enable the observability layer and write a JSON metrics snapshot to this file (\"-\" = stdout)")
	)
	flag.Parse()
	if *metrics != "" {
		obs.Default().SetEnabled(true)
		defer func() {
			if err := writeMetrics(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "mdreduce:", err)
				os.Exit(1)
			}
		}()
	}

	m, err := loadMachine(*file, *machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdreduce:", err)
		os.Exit(1)
	}
	obj, err := core.ParseObjective(*objective)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdreduce:", err)
		os.Exit(1)
	}

	red, err := repro.Reduce(m, obj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdreduce:", err)
		os.Exit(1)
	}

	e := red.Input
	origUses := 0
	for _, o := range e.Ops {
		origUses += len(o.Table.Uses)
	}
	fmt.Printf("machine %q: %d resources, %d operations (%d after expansion), %d classes\n",
		m.Name, len(m.Resources), len(m.Ops), len(e.Ops), red.Classes.NumClasses())
	fmt.Printf("forbidden latencies: %d (max %d)\n",
		red.ClassMatrix.NonnegCount(), red.ClassMatrix.MaxLatency())
	fmt.Printf("generating set: %d resources (%d after pruning)\n", red.GenSetSize, red.PrunedSize)
	fmt.Printf("objective %v: %d -> %d resources, %d -> %d usages per class table\n",
		obj, len(m.Resources), red.NumResources(), origUses, red.NumUsages())
	fmt.Println("verification: reduced description preserves all scheduling constraints")

	if *exact {
		gen := core.GeneratingSet(red.ClassMatrix, nil)
		pruned := core.Prune(red.ClassMatrix, gen)
		opt := core.ExactCover(red.ClassMatrix, pruned, 2_000_000)
		status := "optimal"
		if !opt.Optimal {
			status = "best found (search truncated)"
		}
		fmt.Printf("exact cover (res-uses): %d usages, %s, %d search nodes; heuristic gap: %+d\n",
			opt.Usages, status, opt.Nodes, red.NumUsages()-opt.Usages)
	}

	if !*statsOnly {
		fmt.Println()
		fmt.Print(mdl.Print(red.Reduced.Machine()))
	}
}

// writeMetrics renders, validates and writes the default registry's
// snapshot to path ("-" = stdout).
func writeMetrics(path string) error {
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	data := buf.Bytes()
	if err := obs.ValidateSnapshotJSON(data, "core"); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if path == "-" {
		fmt.Println()
		if _, err := os.Stdout.Write(data); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mdreduce: metrics -> %s\n", path)
	return nil
}

func loadMachine(file, builtin string) (*repro.Machine, error) {
	switch {
	case file != "" && builtin != "":
		return nil, fmt.Errorf("use either -file or -machine, not both")
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return repro.ParseMachine(string(src))
	case builtin != "":
		m := repro.BuiltinMachine(builtin)
		if m == nil {
			return nil, fmt.Errorf("unknown machine %q (have: %s)", builtin, strings.Join(repro.BuiltinMachines(), ", "))
		}
		return m, nil
	}
	return nil, fmt.Errorf("need -file or -machine")
}
