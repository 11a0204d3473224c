// Command benchgate compares a freshly measured benchmark report against
// a committed baseline and fails when any entry regresses. It understands
// the BENCH_*.json schema written by the `paper -bench-*` modes.
//
// Usage:
//
//	benchgate -baseline BENCH_reduction.json -current /tmp/bench.json
//	benchgate ... -max-regress 1.20 -min-delta-ms 5
//
// An entry regresses when its serial wall time exceeds the baseline by
// more than the -max-regress ratio AND by more than -min-delta-ms (the
// absolute floor absorbs scheduler noise on entries that run in
// microseconds). A baseline entry missing from the current report is
// always an error: a renamed or dropped stage must update the committed
// baseline deliberately. Extra entries in the current report are fine —
// they are future baseline material.
//
// Wall-clock throughput depends on the host's core count, so each
// entry's host shape (its own gomaxprocs/num_cpu fields when present,
// the report-level ones otherwise) is compared first: an entry whose
// current host shape differs from the baseline's is skipped with a
// warning rather than failed — a 1-core CI runner cannot meaningfully
// gate numbers measured on an 8-core box. Every report writer records
// the per-entry host shape, so the rule is uniform across all
// BENCH_*.json gates, and the final summary line counts gated and
// skipped entries so an all-skip run is visible at a glance. -entries
// restricts the gate to baseline entries matching a regular expression.
//
// Exit status: 0 when every baseline entry holds, 1 on any regression or
// missing entry, 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

type benchEntry struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	SerialNS   int64   `json:"serial_ns"`
	ParallelNS int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
}

// hostShape resolves an entry's host shape, falling back to the
// report-level fields for entries (and reports) that predate per-entry
// recording.
func hostShape(rep *benchReport, e benchEntry) (gomaxprocs, numCPU int) {
	gomaxprocs, numCPU = e.GoMaxProcs, e.NumCPU
	if gomaxprocs == 0 {
		gomaxprocs = rep.GoMaxProcs
	}
	if numCPU == 0 {
		numCPU = rep.NumCPU
	}
	return gomaxprocs, numCPU
}

type benchReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Loops       int          `json:"loops"`
	Entries     []benchEntry `json:"entries"`
}

func load(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Entries) == 0 {
		return nil, fmt.Errorf("%s: report has no entries", path)
	}
	return &rep, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline report (required)")
		currentPath  = flag.String("current", "", "freshly measured report (required)")
		maxRegress   = flag.Float64("max-regress", 1.20, "maximum allowed current/baseline serial wall-time ratio")
		minDeltaMS   = flag.Float64("min-delta-ms", 5, "ignore regressions smaller than this many milliseconds")
		entriesRE    = flag.String("entries", "", "gate only baseline entries whose name matches this regexp")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *maxRegress <= 0 {
		fmt.Fprintln(os.Stderr, "benchgate: -max-regress must be positive")
		os.Exit(2)
	}
	var nameRE *regexp.Regexp
	if *entriesRE != "" {
		re, err := regexp.Compile(*entriesRE)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: -entries:", err)
			os.Exit(2)
		}
		nameRE = re
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	curByName := make(map[string]benchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}

	failed := false
	gated, skipped := 0, 0
	minDeltaNS := int64(*minDeltaMS * 1e6)
	for _, b := range base.Entries {
		if nameRE != nil && !nameRE.MatchString(b.Name) {
			continue
		}
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %-22s missing from %s\n", b.Name, *currentPath)
			failed = true
			continue
		}
		bg, bn := hostShape(base, b)
		cg, cn := hostShape(cur, c)
		if bg != cg || bn != cn {
			fmt.Fprintf(os.Stderr, "benchgate: skip %-22s host shape %d/%d differs from baseline %d/%d (gomaxprocs/num_cpu)\n",
				b.Name, cg, cn, bg, bn)
			skipped++
			continue
		}
		gated++
		ratio := float64(c.SerialNS) / float64(b.SerialNS)
		if c.SerialNS > int64(float64(b.SerialNS)**maxRegress) && c.SerialNS-b.SerialNS > minDeltaNS {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %-22s serial %8.2fms vs baseline %8.2fms (%.2fx > %.2fx)\n",
				b.Name, float64(c.SerialNS)/1e6, float64(b.SerialNS)/1e6, ratio, *maxRegress)
			failed = true
			continue
		}
		fmt.Fprintf(os.Stderr, "benchgate: ok   %-22s serial %8.2fms vs baseline %8.2fms (%.2fx)\n",
			b.Name, float64(c.SerialNS)/1e6, float64(b.SerialNS)/1e6, ratio)
	}
	if failed {
		os.Exit(1)
	}
	if gated == 0 && skipped == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline entries match -entries %q\n", *entriesRE)
		os.Exit(2)
	}
	fmt.Printf("benchgate: %d entries within %.0f%% of %s, %d skipped (host shape)\n",
		gated, (*maxRegress-1)*100, *baselinePath, skipped)
}
