package sched

import (
	"repro/internal/ddg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// Arena owns every reusable piece of scheduler state for one worker:
// the contention query modules (one per initiation interval seen,
// Reset between loops instead of rebuilt), the scheduler's scratch
// vectors, and the MII computation's buffers. Scheduling a corpus
// through an arena produces byte-identical schedules and query
// counters to fresh per-loop Schedule calls — only the allocation
// behaviour differs: after a warmup pass over the largest loop shape,
// an arena schedules at zero allocations per loop (pinned by
// TestArenaSteadyStateZeroAlloc).
//
// An arena must not be shared between goroutines; batch drivers keep
// one arena per worker (ScheduleBatch, ScheduleStream).
type Arena struct {
	factory  ModuleFactory
	moduleOf ModuleFactory // method value over module, bound once
	modules  map[int]query.Module
	total    query.Counters
	sc       schedScratch
	osc      optScratch
	lsc      listScratch
	mi       ModuleIssuer
	met      *arenaObs
}

// NewArena returns an arena whose modules come from factory (exactly
// the factory a fresh Schedule call would use).
func NewArena(factory ModuleFactory) *Arena {
	a := &Arena{factory: factory, modules: make(map[int]query.Module), met: newArenaObs()}
	a.moduleOf = a.module
	return a
}

// module returns the cached module for ii, building it on first use.
// A cached module's counters are folded into the arena total before
// the Reset wipes them, so Counters() is monotone across loops and
// equals the sum a fresh-module run would have produced.
func (a *Arena) module(ii int) query.Module {
	if mod, ok := a.modules[ii]; ok {
		a.total.AddFrom(mod.Counters())
		mod.Reset()
		a.met.onReuse()
		return mod
	}
	mod := a.factory(ii)
	a.modules[ii] = mod
	a.met.onBuild()
	return mod
}

// Counters returns the arena's cumulative query counters: everything
// folded at reuse time plus the live counters of the cached modules.
// All counter fields are sums, so the map's iteration order is
// irrelevant. Callers wanting per-loop attribution difference two
// snapshots (Counters is monotone).
func (a *Arena) Counters() query.Counters {
	c := a.total
	for _, mod := range a.modules {
		c.AddFrom(mod.Counters())
	}
	return c
}

// ScheduleInto is Schedule writing into a caller-owned Result; cycling
// the same Result through keeps its slices' capacity, making the call
// allocation-free in steady state.
func (a *Arena) ScheduleInto(res *Result, g *ddg.Graph, m *resmodel.Machine, cfg Config) {
	scheduleInto(res, g, m, a.moduleOf, cfg, &a.sc)
	observeSchedule(res)
}

// Schedule is the package-level Schedule through this arena's reused
// modules and scratch.
func (a *Arena) Schedule(g *ddg.Graph, m *resmodel.Machine, cfg Config) Result {
	var res Result
	a.ScheduleInto(&res, g, m, cfg)
	return res
}

// OptimalInto is Optimal writing into a caller-owned OptimalResult,
// searching on the arena's cached modules and scratch.
func (a *Arena) OptimalInto(res *OptimalResult, g *ddg.Graph, m *resmodel.Machine, cfg OptimalConfig) {
	optimalInto(res, g, m, a.moduleOf, cfg, &a.osc)
	observeOptimal(res)
}

// Optimal is the package-level Optimal through this arena's reused
// modules and scratch.
func (a *Arena) Optimal(g *ddg.Graph, m *resmodel.Machine, cfg OptimalConfig) OptimalResult {
	var res OptimalResult
	a.OptimalInto(&res, g, m, cfg)
	return res
}

// ListScheduleInto is ListSchedule on the arena's cached linear module
// (a ModuleIssuer over the ii=0 table).
func (a *Arena) ListScheduleInto(res *ListResult, g *ddg.Graph, e *resmodel.Expanded) error {
	a.mi = ModuleIssuer{M: a.module(0)}
	return listScheduleInto(res, g, e, &a.mi, &a.lsc)
}

// ListSchedule wraps ListScheduleInto with a fresh result.
func (a *Arena) ListSchedule(g *ddg.Graph, e *resmodel.Expanded) (ListResult, error) {
	var res ListResult
	err := a.ListScheduleInto(&res, g, e)
	return res, err
}

// OperationDrivenInto is OperationDriven on the arena's cached linear
// module.
func (a *Arena) OperationDrivenInto(res *ListResult, g *ddg.Graph, e *resmodel.Expanded) error {
	return operationDrivenInto(res, g, e, a.module(0), &a.lsc)
}

// OperationDriven wraps OperationDrivenInto with a fresh result.
func (a *Arena) OperationDriven(g *ddg.Graph, e *resmodel.Expanded) (ListResult, error) {
	var res ListResult
	err := a.OperationDrivenInto(&res, g, e)
	return res, err
}

// ScheduleBatch modulo-schedules every loop of a benchmark independently
// across a bounded worker pool of the given size (workers < 1 selects
// GOMAXPROCS). Each worker owns one arena, builds its modules once
// through factory and reuses them across every loop it steals, so
// nothing mutable is shared between workers; the factory may capture
// shared state only if it is read-only (an *resmodel.Expanded is; a
// query.Module is not). Results are indexed by loop and equal per-loop
// Schedule calls at any worker count, so merging statistics in index
// order reproduces the serial iteration byte for byte.
func ScheduleBatch(loops []*ddg.Graph, m *resmodel.Machine, factory ModuleFactory, cfg Config, workers int) []Result {
	out := make([]Result, len(loops))
	parallel.ForEachState(len(loops), parallel.Workers(workers),
		func() *Arena { return NewArena(factory) },
		func(a *Arena, i int) { out[i] = a.Schedule(loops[i], m, cfg) })
	return out
}

// StreamStats aggregates a streamed scheduling run. Counters sums the
// query-module counters of every worker's arena.
type StreamStats struct {
	Loops     int
	Failed    int
	Decisions int64
	SumII     int64
	SumMII    int64
	Counters  query.Counters
}

// ScheduleStream schedules loops pulled from next until it reports
// ok=false, through per-worker arenas, retaining nothing per loop —
// the flat-memory path for 10^5..10^6-loop corpora (loopgen.Stream is
// the intended source). next is called only from this goroutine, so an
// unsynchronized generator is fine; chunk bounds how many loops are in
// flight at once per buffer (<= 0 selects a default). Failed loops are
// counted, not fatal.
//
// The chunks are double-buffered: while the workers schedule one chunk,
// this goroutine generates the next, so the pipeline's wall time
// approaches max(generation, scheduling) instead of their sum — the
// CPU profile of the 100k-loop throughput benchmark showed ~20% of the
// pipeline in corpus generation (math/rand reseeding per loop), all of
// it previously serialized between scheduling bursts. Results, stats
// and counters are identical to the strictly alternating pipeline: the
// same loops reach the same arena pool in the same chunk order, and at
// most one extra chunk is in flight.
func ScheduleStream(next func() (*ddg.Graph, bool), m *resmodel.Machine, factory ModuleFactory, cfg Config, workers, chunk int) StreamStats {
	workers = parallel.Workers(workers)
	if chunk <= 0 {
		chunk = 256
	}
	type streamWorker struct {
		a     *Arena
		res   Result
		stats StreamStats
	}
	// parallel.ForEachState builds fresh state per call, so the arenas
	// live in a free-list the per-chunk workers borrow from: any chunk's
	// worker goroutine continues whichever arena it draws.
	pool := make(chan *streamWorker, workers)
	for w := 0; w < workers; w++ {
		pool <- &streamWorker{a: NewArena(factory)}
	}
	fill := func(buf []*ddg.Graph) []*ddg.Graph {
		for len(buf) < chunk {
			g, ok := next()
			if !ok {
				break
			}
			buf = append(buf, g)
		}
		return buf
	}
	cur := fill(make([]*ddg.Graph, 0, chunk))
	spare := make([]*ddg.Graph, 0, chunk)
	for len(cur) > 0 {
		buf := cur
		done := make(chan struct{})
		go func() {
			parallel.ForEach(len(buf), workers, func(i int) {
				w := <-pool
				w.a.ScheduleInto(&w.res, buf[i], m, cfg)
				w.stats.Loops++
				if w.res.OK {
					w.stats.SumII += int64(w.res.II)
				} else {
					w.stats.Failed++
				}
				w.stats.SumMII += int64(w.res.MII)
				w.stats.Decisions += int64(w.res.Decisions)
				buf[i] = nil // the schedule is consumed; let the loop go
				pool <- w
			})
			close(done)
		}()
		spare = spare[:0]
		if len(cur) == chunk {
			// A full chunk may not be the last; overlap the next fill
			// with the in-flight scheduling. A short chunk means the
			// generator is exhausted — don't call next again after false.
			spare = fill(spare)
		}
		<-done
		cur, spare = spare, cur
	}
	var total StreamStats
	for w := 0; w < workers; w++ {
		wk := <-pool
		total.Loops += wk.stats.Loops
		total.Failed += wk.stats.Failed
		total.Decisions += wk.stats.Decisions
		total.SumII += wk.stats.SumII
		total.SumMII += wk.stats.SumMII
		c := wk.a.Counters()
		total.Counters.AddFrom(&c)
	}
	return total
}

// arenaObs publishes module cache behaviour under the "sched.arena"
// scope; nil (metrics disabled) makes every hook a no-op, keeping the
// arena's own overhead off the measured path.
type arenaObs struct {
	builds *obs.Counter
	reuses *obs.Counter
}

func newArenaObs() *arenaObs {
	if !obs.Enabled() {
		return nil
	}
	s := obs.Default().Scope("sched").Scope("arena")
	return &arenaObs{builds: s.Counter("module_builds"), reuses: s.Counter("module_reuses")}
}

func (m *arenaObs) onBuild() {
	if m == nil {
		return
	}
	m.builds.Inc()
}

func (m *arenaObs) onReuse() {
	if m == nil {
		return
	}
	m.reuses.Inc()
}
