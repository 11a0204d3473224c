// Command perfbench is the scheduling stack's end-to-end benchmark. It
// drives two workloads through the public entry points of loopgen,
// sched, query, core and serve, checks every output independently, and
// prints one JSON result line:
//
//	perfbench --workload ims-stream --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the same work runs once untraced and
// once traced and the result carries the per-layer metrics. Metric names
// and units come from BENCHMARK.json in the working directory, so the
// program and the spec cannot drift apart. See README.md in this
// directory for what each workload stresses.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and its operation accounting. A
// failed operation is an unscheduled loop, a refused or failed request,
// or an output check that did not hold; error_frac is failed/attempted.
type report struct {
	units     map[string]string // metric name -> unit, from the spec
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string // measured but not gated; printed in the table only
}

func newReport(ms []specMetric) *report {
	r := &report{units: map[string]string{}, metrics: map[string]metric{}}
	for _, m := range ms {
		r.units[m.Name] = m.Unit
	}
	return r
}

// set records a metric; a name the spec does not list is a bug.
func (r *report) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's BENCHMARK.json list")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a measurement that is printed in the table but is not
// one of BENCHMARK.json's metrics.
func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %14s %s (not gated)", name, strconv.FormatFloat(v, 'g', 6, 64), unit))
}

// check counts one attempted operation or output check; a false ok
// counts it as failed and keeps the first few messages for stderr.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// tally counts n attempted operations of which failed failed, with
// what naming them in the failure message.
func (r *report) tally(n, failed int64, what string) {
	r.attempted += n
	r.failed += failed
	if failed > 0 && len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d %s failed", failed, n, what))
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes its spans
	rep      *report
}

var workloads = map[string]func(*runConfig) error{
	"ims-stream": runIMSStream,
	"serve-mix":  runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if err := run("BENCHMARK.json", *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(specPath, workload string, seed int64, seconds float64, trace int) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == workload
	}
	if !listed {
		return fmt.Errorf("workload %q is not in %s", workload, specPath)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	want := sp.EndToEnd
	if trace == 1 {
		want = sp.PerLayer
	}
	cfg := &runConfig{seed: seed, seconds: seconds, trace: trace == 1, traceDir: ".bench_build/traces", rep: newReport(want)}
	start := time.Now()
	if err := fn(cfg); err != nil {
		return err
	}
	rep := cfg.rep
	if trace == 0 {
		rep.set("peak_rss_mb", peakRSSMB())
		for _, m := range want {
			if _, ok := rep.metrics[m.Name]; !ok {
				return fmt.Errorf("workload %s did not measure end-to-end metric %s", workload, m.Name)
			}
		}
	} else {
		// Layers a workload bypasses read 0: the workload does no work
		// there, which is itself the per-layer answer.
		for _, m := range want {
			if _, ok := rep.metrics[m.Name]; !ok {
				rep.set(m.Name, 0)
			}
		}
	}
	return printResult(os.Stdout, workload, seed, time.Since(start), want, rep)
}

// printResult writes a readable table (plus error_frac, which is
// failed/attempted) and then the JSON result as the last line.
func printResult(f io.Writer, workload string, seed int64, wall time.Duration, order []specMetric, rep *report) error {
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s seed %d, %.1fs wall\n", workload, seed, wall.Seconds())
	names := make([]string, 0, len(order))
	for _, m := range order {
		names = append(names, m.Name)
	}
	if len(order) > 20 {
		sort.Strings(names)
	}
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	errFrac := 0.0
	if rep.attempted > 0 {
		errFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-34s %14s frac (%d failed of %d attempted)\n", "error_frac", strconv.FormatFloat(errFrac, 'g', 6, 64), rep.failed, rep.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
