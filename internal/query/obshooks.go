package query

import (
	"repro/internal/obs"
)

// fnObs is the observability handle pair of one basic function: a call
// counter and a probe-length histogram (work units handled per call —
// resource usages for discrete modules, non-empty words for bitvector
// ones).
type fnObs struct {
	calls *obs.Counter
	probe *obs.Histogram
}

func (f *fnObs) observe(work int64) {
	f.calls.Inc()
	f.probe.Observe(work)
}

// moduleObs holds a module's handles into the default registry. A module
// built while metrics are disabled carries a nil *moduleObs and every
// hook below degenerates to an inlined nil check, keeping the query hot
// path at 0 allocs/op and unmeasurable overhead (pinned by the alloc
// tests and ReportAllocs benchmarks in this package).
type moduleObs struct {
	check, assign, assignFree, free fnObs
	firstFree                       fnObs
	checkWithAlt                    *obs.Counter
	firstFreeWithAlt                *obs.Counter
	firstFreeSkips                  *obs.Counter
	verdictWords                    *obs.Counter
	evictions                       *obs.Counter
	modeTransitions                 *obs.Counter
}

// newModuleObs acquires the "query.<kind>" scope handles, or nil while
// the default registry is disabled. Handles are shared by name, so every
// module of the same kind accumulates into the same process totals.
func newModuleObs(kind string) *moduleObs {
	if !obs.Enabled() {
		return nil
	}
	s := obs.Default().Scope("query").Scope(kind)
	fn := func(name string) fnObs {
		return fnObs{calls: s.Counter(name + ".calls"), probe: s.Histogram(name + ".probe")}
	}
	return &moduleObs{
		check:            fn("check"),
		assign:           fn("assign"),
		assignFree:       fn("assign_free"),
		free:             fn("free"),
		firstFree:        fn("firstfree"),
		checkWithAlt:     s.Counter("check_with_alt.calls"),
		firstFreeWithAlt: s.Counter("first_free_with_alt.calls"),
		firstFreeSkips:   s.Counter("firstfree.summary_skips"),
		verdictWords:     s.Counter("firstfree.verdict_words"),
		evictions:        s.Counter("evictions"),
		modeTransitions:  s.Counter("mode_transitions"),
	}
}

func (m *moduleObs) OnCheck(work int64) {
	if m == nil {
		return
	}
	m.check.observe(work)
}

func (m *moduleObs) OnAssign(work int64) {
	if m == nil {
		return
	}
	m.assign.observe(work)
}

func (m *moduleObs) OnAssignFree(work int64, evicted int) {
	if m == nil {
		return
	}
	m.assignFree.observe(work)
	m.evictions.Add(int64(evicted))
}

func (m *moduleObs) OnFree(work int64) {
	if m == nil {
		return
	}
	m.free.observe(work)
}

func (m *moduleObs) OnCheckWithAlt() {
	if m == nil {
		return
	}
	m.checkWithAlt.Inc()
}

// OnFirstFree records one range query and its work units under
// query.<kind>.firstfree.calls/.probe (per-op probe lengths — the
// ISSUE's per-op firstfree.probes histogram), plus any candidate
// cycles the occupancy summary answered on its own
// (query.<kind>.firstfree.summary_skips; always 0 for discrete).
func (m *moduleObs) OnFirstFree(work, skips int64) {
	if m == nil {
		return
	}
	m.firstFree.observe(work)
	if skips != 0 {
		m.firstFreeSkips.Add(skips)
	}
}

// OnVerdictWords records verdict words built by the bit-parallel range
// scan (query.<kind>.firstfree.verdict_words). Zero deltas — the
// discrete module's — record nothing.
func (m *moduleObs) OnVerdictWords(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.verdictWords.Add(n)
}

func (m *moduleObs) OnFirstFreeWithAlt() {
	if m == nil {
		return
	}
	m.firstFreeWithAlt.Inc()
}

func (m *moduleObs) OnModeTransition() {
	if m == nil {
		return
	}
	m.modeTransitions.Inc()
}
