package sched

import (
	"sync"
	"sync/atomic"

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
// the intended source). Failed loops are counted, not fatal.
//
// The stream is a pipeline. One generator goroutine is the only caller
// of next, so an unsynchronized generator is fine, and it never calls
// next again after ok=false. It feeds a channel of capacity chunk
// (<= 0 selects 64); workers goroutines, each with its own arena,
// drain the channel and sum their statistics. Scheduling starts with
// the first loop, and the wall time approaches max(generation,
// scheduling) instead of their sum. At most chunk loops wait in the
// channel, plus one per worker and one held by the generator. Every
// statistic and counter is a sum, so the totals equal per-loop
// Schedule calls however the loops are spread over the workers.
//
// A panic in next or while scheduling a loop stops the generator and
// the workers, and re-panics on the caller as a *parallel.WorkerPanic
// carrying the panicking goroutine's stack; no goroutine outlives the
// call.
func ScheduleStream(next func() (*ddg.Graph, bool), m *resmodel.Machine, factory ModuleFactory, cfg Config, workers, chunk int) StreamStats {
	workers = parallel.Workers(workers)
	if chunk <= 0 {
		// Generation outpaces scheduling, so the channel stays full:
		// the buffer only absorbs the generator's stalls, and every
		// loop in it is live heap.
		chunk = 64
	}
	loops := make(chan *ddg.Graph, chunk)
	stop := make(chan struct{})
	var firstPanic atomic.Pointer[parallel.WorkerPanic]
	var stopOnce sync.Once
	catch := func() {
		if p := recover(); p != nil {
			firstPanic.CompareAndSwap(nil, parallel.NewWorkerPanic(p))
			stopOnce.Do(func() { close(stop) })
		}
	}
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(loops)
		defer catch()
		for {
			g, ok := next()
			if !ok {
				return
			}
			select {
			case loops <- g:
			case <-stop:
				return
			}
		}
	}()
	stats := make([]StreamStats, workers)
	for w := range stats {
		go func() {
			defer wg.Done()
			defer catch()
			a := NewArena(factory)
			var res Result
			var st StreamStats
			for g := range loops {
				select {
				case <-stop:
					return
				default:
				}
				a.ScheduleInto(&res, g, m, cfg)
				st.Loops++
				if res.OK {
					st.SumII += int64(res.II)
				} else {
					st.Failed++
				}
				st.SumMII += int64(res.MII)
				st.Decisions += int64(res.Decisions)
			}
			st.Counters = a.Counters()
			stats[w] = st
		}()
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
	var total StreamStats
	for i := range stats {
		st := &stats[i]
		total.Loops += st.Loops
		total.Failed += st.Failed
		total.Decisions += st.Decisions
		total.SumII += st.SumII
		total.SumMII += st.SumMII
		total.Counters.AddFrom(&st.Counters)
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
