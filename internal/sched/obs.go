package sched

import (
	"repro/internal/obs"
)

// observeSchedule publishes one Schedule call's Iterative Modulo
// Scheduling statistics to the "sched" scope of the default registry:
// the budget actually spent (scheduling decisions across all II
// attempts), evictions split by cause, and backtracking per loop. It is
// a no-op while metrics are disabled; Schedule is called once per loop,
// so the registry lookups here are far off the query hot path.
func observeSchedule(r *Result) {
	if !obs.Enabled() {
		return
	}
	s := obs.Default().Scope("sched")
	s.Counter("loops").Inc()
	if !r.OK {
		s.Counter("failed").Inc()
	}
	s.Counter("attempts").Add(int64(r.Attempts))
	s.Counter("decisions").Add(int64(r.Decisions))
	s.Counter("reversed").Add(int64(r.Reversed))
	s.Counter("resource_evictions").Add(int64(r.ResourceEvictions))
	s.Counter("dep_evictions").Add(int64(r.DepEvictions))
	s.Counter("budget_exceeded").Add(int64(r.BudgetExceeded))

	s.Histogram("budget_spent_per_loop").Observe(int64(r.Decisions))
	s.Histogram("reversals_per_loop").Observe(int64(r.Reversed))
	s.Histogram("attempts_per_loop").Observe(int64(r.Attempts))
	checks := s.Histogram("checks_per_decision")
	for _, c := range r.ChecksPerDecision {
		checks.Observe(int64(c))
	}
	// The candidate-cycle window each time-slot search covered; widths
	// above 1 are the multi-cycle eliminations one range query answers:
	// the bitvector reads one verdict-row window per usage for up to 64
	// candidates, the discrete table scans past the blocking usage's row.
	widths := s.Histogram("scan.width")
	for _, w := range r.ScanWidths {
		widths.Observe(int64(w))
	}
}

// observeOptimal publishes one Optimal call's search statistics to the
// "sched.opt" scope: outcomes (proven / fallback / failed), search
// nodes, frontier tasks and IIs proven infeasible, plus per-loop
// distributions of the node spend and the proven II-over-MII gap. Every
// quantity is deterministic at any worker count, so differential tests
// can pin snapshot equality across batch worker counts.
func observeOptimal(r *OptimalResult) {
	if !obs.Enabled() {
		return
	}
	s := obs.Default().Scope("sched").Scope("opt")
	s.Counter("loops").Inc()
	if r.Proven {
		s.Counter("proven").Inc()
	}
	if r.Fallback {
		s.Counter("fallbacks").Inc()
	}
	if !r.OK {
		s.Counter("failed").Inc()
	}
	s.Counter("nodes").Add(r.Nodes)
	s.Counter("tasks").Add(int64(r.Tasks))
	s.Counter("infeasible_iis").Add(int64(r.InfeasibleIIs))
	s.Histogram("nodes_per_loop").Observe(r.Nodes)
	if r.Proven {
		s.Histogram("gap").Observe(int64(r.II - r.MII))
	}
}
