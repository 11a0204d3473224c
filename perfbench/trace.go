package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/sched"
)

// span is one timed interval of a traced run. Parent 0 is the root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
// Spans are opened and closed from the scheduling goroutine, the
// generator goroutine and the HTTP server's goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id (ids start at 1).
func (t *tracer) open(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// close ends span id.
func (t *tracer) close(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleEvery is the query-call timing rate: every call is counted, one
// in sampleEvery is timed. Module calls take tens of nanoseconds, so
// timing each would cost more than the call.
const sampleEvery = 16

// callStats accounts one query function.
type callStats struct {
	calls   int64
	sampled int64 // calls timed
	ns      int64 // time of the timed calls, timer overhead removed
}

// meanNS is the mean time per call estimated from the sample.
func (c *callStats) meanNS() float64 { return frac(float64(c.ns), float64(c.sampled)) }

// totalNS estimates the time of every call.
func (c *callStats) totalNS() float64 { return c.meanNS() * float64(c.calls) }

// queryStats accounts the query layer over one traced pass. It is
// updated from the one goroutine that schedules.
type queryStats struct {
	check, assign, assignFree, free, firstFree, firstFreeAlt callStats
	checkOK, firstFreeOK                                     int64
	builds                                                   int64
	buildNS                                                  int64
	tick                                                     uint32
}

func (q *queryStats) all() []*callStats {
	return []*callStats{&q.check, &q.assign, &q.assignFree, &q.free, &q.firstFree, &q.firstFreeAlt}
}

// totalNS estimates the query layer's time: every module call plus the
// module builds (query.Select) the factory made.
func (q *queryStats) totalNS() float64 {
	t := float64(q.buildNS)
	for _, c := range q.all() {
		t += c.totalNS()
	}
	return t
}

func (q *queryStats) calls() int64 {
	var n int64
	for _, c := range q.all() {
		n += c.calls
	}
	return n
}

// timerOverheadNS is what a timed region measures around no work at
// all; it is taken off every timed call.
var timerOverheadNS = func() int64 {
	var best int64 = 1 << 62
	for r := 0; r < 5; r++ {
		const n = 2000
		var sum time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s)
		}
		if d := int64(sum) / n; d < best {
			best = d
		}
	}
	return best
}()

// begin counts a call to c and, for one call in sampleEvery, returns its
// start time.
func (q *queryStats) begin(c *callStats) (time.Time, bool) {
	c.calls++
	q.tick++
	if q.tick%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *callStats) end(t0 time.Time, timed bool) {
	if !timed {
		return
	}
	d := int64(time.Since(t0)) - timerOverheadNS
	if d < 0 {
		d = 0
	}
	c.sampled++
	c.ns += d
}

// timedModule wraps a query module, counting every call and timing a
// sample. The schedulers type-assert query.RangeQuerier and
// query.AltGrouper and fall back to slower paths without them; every
// backend implements both, and so does the wrapper, so a traced run
// takes the same code paths as an untraced one. Counters and Reset
// forward, so arena accounting is unchanged.
type timedModule struct {
	inner query.Module
	rq    query.RangeQuerier
	ag    query.AltGrouper
	st    *queryStats
}

// wrapModule returns mod behind the timing wrapper. A module without
// RangeQuerier or AltGrouper would be traced on other code paths than
// it runs untraced, so it is refused.
func wrapModule(mod query.Module, st *queryStats) *timedModule {
	rq, ok1 := mod.(query.RangeQuerier)
	ag, ok2 := mod.(query.AltGrouper)
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("perfbench: query module %T lacks RangeQuerier or AltGrouper", mod))
	}
	return &timedModule{inner: mod, rq: rq, ag: ag, st: st}
}

// tracedFactory wraps every module factory builds, timing each build.
func tracedFactory(factory sched.ModuleFactory, st *queryStats) sched.ModuleFactory {
	return func(ii int) query.Module {
		t0 := time.Now()
		mod := factory(ii)
		st.builds++
		st.buildNS += int64(time.Since(t0))
		return wrapModule(mod, st)
	}
}

func (m *timedModule) Check(op, cycle int) bool {
	t0, timed := m.st.begin(&m.st.check)
	ok := m.inner.Check(op, cycle)
	m.st.check.end(t0, timed)
	if ok {
		m.st.checkOK++
	}
	return ok
}

func (m *timedModule) CheckWithAlt(origOp, cycle int) (int, bool) {
	t0, timed := m.st.begin(&m.st.check)
	op, ok := m.inner.CheckWithAlt(origOp, cycle)
	m.st.check.end(t0, timed)
	if ok {
		m.st.checkOK++
	}
	return op, ok
}

func (m *timedModule) Assign(op, cycle, id int) {
	t0, timed := m.st.begin(&m.st.assign)
	m.inner.Assign(op, cycle, id)
	m.st.assign.end(t0, timed)
}

func (m *timedModule) AssignFree(op, cycle, id int) []int {
	t0, timed := m.st.begin(&m.st.assignFree)
	ev := m.inner.AssignFree(op, cycle, id)
	m.st.assignFree.end(t0, timed)
	return ev
}

func (m *timedModule) Free(op, cycle, id int) {
	t0, timed := m.st.begin(&m.st.free)
	m.inner.Free(op, cycle, id)
	m.st.free.end(t0, timed)
}

func (m *timedModule) FirstFree(op, lo, hi int) (int, bool) {
	t0, timed := m.st.begin(&m.st.firstFree)
	c, ok := m.rq.FirstFree(op, lo, hi)
	m.st.firstFree.end(t0, timed)
	if ok {
		m.st.firstFreeOK++
	}
	return c, ok
}

func (m *timedModule) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	t0, timed := m.st.begin(&m.st.firstFreeAlt)
	op, c, ok := m.rq.FirstFreeWithAlt(origOp, lo, hi)
	m.st.firstFreeAlt.end(t0, timed)
	if ok {
		m.st.firstFreeOK++
	}
	return op, c, ok
}

func (m *timedModule) AltGroupOf(origOp int) []int { return m.ag.AltGroupOf(origOp) }
func (m *timedModule) Schedulable(op int) bool     { return m.inner.Schedulable(op) }
func (m *timedModule) Counters() *query.Counters   { return m.inner.Counters() }
func (m *timedModule) Reset()                      { m.inner.Reset() }

// reportQuery sets the query layer's per-layer metrics from one traced
// pass, but query.share: st from the wrapper, c the module counters.
func reportQuery(rep *report, st *queryStats, c query.Counters) {
	rep.set("query.calls", float64(st.calls()))
	rep.set("query.work", float64(queryWork(c)))
	rep.set("query.module_builds", float64(st.builds))
	rep.set("query.check.ns", st.check.meanNS())
	rep.set("query.check.ok_frac", frac(float64(st.checkOK), float64(st.check.calls)))
	rep.set("query.assign.ns", st.assign.meanNS())
	rep.set("query.assign_free.ns", st.assignFree.meanNS())
	rep.set("query.free.ns", st.free.meanNS())
	rep.set("query.first_free.ns", st.firstFree.meanNS())
	rep.set("query.first_free_alt.ns", st.firstFreeAlt.meanNS())
	ranges := float64(st.firstFree.calls + st.firstFreeAlt.calls)
	rep.set("query.first_free.probes_per_call", frac(float64(c.FirstFreeCycles), ranges))
	rep.set("query.first_free.hit_frac", frac(float64(st.firstFreeOK), ranges))
}

// queryWork is the paper's work units over every query function,
// range scans included.
func queryWork(c query.Counters) int64 { return c.TotalWork() + c.FirstFreeWork }
