package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/mdl"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/serve"
)

const (
	// mixSenders is the number of request goroutines, each on its own
	// connection. With two, server and client contend for both cores and
	// the run-to-run spread of p50_ms on a 2-core shared x86-64 VM was
	// 10%; with one it was 3%.
	mixSenders = 1
	// mixRate is the fixed offered rate (requests/s) of the latency phase.
	mixRate = 700.0
	// mixLimitMS is the p99 latency limit the fixed-rate phase is held
	// to; an operation past five times it stops its open loop.
	mixLimitMS = 100.0
	// mixGenLagMS: an open loop whose generator ran later than this at
	// its p99 fell behind on its own and is invalid. Sleeping timers on a
	// 2-core shared x86-64 VM woke up to ~5 ms late at p99 with no load.
	mixGenLagMS = 10.0
	// The measured phase is mixRounds rounds. Each runs mixFixedShare of
	// its time as an open loop at mixRate (p50_ms) and the rest as a
	// closed loop, one operation after another on one connection
	// (max_rps). Taking turns puts a slow spell of the shared host on
	// both measurements alike. With one sender, the highest offered rate
	// at which the backlog stops growing is its one-at-a-time service
	// rate, which the closed loop reads directly as a median over many
	// windows; an open-loop search for that rate would rest on one
	// pass/fail verdict per short step of a shared host.
	mixRounds     = 6
	mixFixedShare = 0.5
	// mixCapWindow operations make one closed-loop window; max_rps is
	// the median window rate.
	mixCapWindow = 500
	// mixWindows: the fixed-rate phase's latency and generator-lag tests
	// take the median of the p99 of this many equal windows (each keeps
	// at least ten samples past its p99), so one stall of the shared
	// host does not decide them.
	mixWindows = 9
	// mixP99Span: the printed p99_ms is the median, over consecutive
	// spans of this many requests (a third of a second at mixRate), of
	// each span's p99, so one burst of host stalls does not decide it.
	mixP99Span = 250

	mixBatchOps  = 64
	mixStreamOps = 200
	// Pool sizes of pre-built request bodies. 512 distinct random
	// machines exceed both the reduction LRU and the machine registry
	// (256 each), so reductions stay cold and registrations evict.
	mixBatchPool  = 64
	mixStreamPool = 16
	mixSchedPool  = 256
	mixReducePool = 512
	// mixMachine is the registered Cydra 5 description's name.
	mixMachine = "cydra5"
)

type mixKind int

const (
	kindBatch mixKind = iota
	kindSchedule
	kindStream
	kindReduce
	numKinds
)

var kindNames = [numKinds]string{"batch", "schedule", "stream", "reduce"}

// pickKind draws the request mix: ~60% batch, ~25% schedule, ~10%
// session stream, ~5% reduce.
func pickKind(rng *rand.Rand) mixKind {
	switch u := rng.Float64(); {
	case u < 0.60:
		return kindBatch
	case u < 0.85:
		return kindSchedule
	case u < 0.95:
		return kindStream
	}
	return kindReduce
}

// opAnswer is the in-process answer to one query op.
type opAnswer struct {
	fn    string
	ok    bool
	cycle int
}

type queryCase struct {
	body     []byte // batch JSON or stream NDJSON
	ops      []serve.BatchOp
	want     []opAnswer
	counters query.Counters // in-process counters after the ops
	replayNS float64        // in-process time of the same ops on a fresh module
}

type schedCase struct {
	body []byte
	g    *ddg.Graph
}

type reduceCase struct {
	body              []byte
	resources, usages int // the in-process reduction's answer
}

// mixPools holds every request body a run sends, built before timing.
type mixPools struct {
	batch, stream []queryCase
	sched         []schedCase
	reduce        []reduceCase
}

// mixReq is one operation of the mix.
type mixReq struct {
	kind mixKind
	idx  int // case index in the kind's pool
}

// serveEnv is a running server on a loopback listener and its client.
type serveEnv struct {
	base   string
	hs     *http.Server
	srv    *serve.Server
	done   chan struct{}
	client *http.Client
	pools  *mixPools
	orc    *oracle
	rec    *handlerRec // traced runs only
}

// handlerRec is the traced run's handler timing. While on is set, its
// middleware adds each handler call's time to the slot of the request
// id the client tagged it with, and records a span under the client's.
type handlerRec struct {
	tr *tracer
	on atomic.Bool
	ns []atomic.Int64
}

func (rec *handlerRec) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		if !rec.on.Load() || err != nil || id < 0 || id >= len(rec.ns) {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		sp := rec.tr.open("serve.handler", int32(parent))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.ns[id].Add(int64(time.Since(t0)))
		rec.tr.close(sp)
	})
}

// startServer runs serve.New's handler (behind rec's timer, if rec is
// not nil) on a fresh loopback listener and registers Cydra 5 through
// the wire.
func startServer(rec *handlerRec) (*serveEnv, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = rec.wrap(h)
	}
	env := &serveEnv{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		srv:  srv,
		rec:  rec,
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: mixSenders + 1,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(env.done)
		env.hs.Serve(ln)
	}()
	body, err := json.Marshal(serve.ReduceRequest{Name: mixMachine, MDL: cydra5MDL})
	if err != nil {
		env.stop()
		return nil, err
	}
	var rr serve.ReduceResponse
	if _, err := env.post("/v1/reduce", body, &rr, nil); err != nil {
		env.stop()
		return nil, err
	}
	return env, nil
}

// stop closes the listener and every connection and waits for Serve.
func (env *serveEnv) stop() {
	env.hs.Close()
	<-env.done
	env.client.CloseIdleConnections()
}

// statusError is a response other than 200.
type statusError struct {
	code int
	path string
	body []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d on %s: %.200s", e.code, e.path, e.body)
}

// post sends one JSON request on behalf of o (nil for none). It returns
// the bytes moved (request plus response body).
func (env *serveEnv) post(path string, body []byte, out any, o *outcome) (int, error) {
	req, err := http.NewRequest(http.MethodPost, env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return env.do(req, len(body), out, o)
}

// do sends req, tagged with o's request id and span for the traced
// run's middleware, and decodes a 200 response into out (raw bytes for
// a *[]byte).
func (env *serveEnv) do(req *http.Request, sent int, out any, o *outcome) (int, error) {
	if o != nil {
		req.Header.Set("X-Bench-Req", strconv.Itoa(o.id))
		req.Header.Set("X-Bench-Span", strconv.Itoa(int(o.span)))
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{resp.StatusCode, req.URL.Path, data}
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
		} else if err := json.Unmarshal(data, out); err != nil {
			return 0, err
		}
	}
	return sent + len(data), nil
}

// buildPools makes every request body of a run from the seed, with the
// in-process answers the served ones must equal.
func buildPools(seed int64) (*mixPools, error) {
	m, err := mdl.Parse(cydra5MDL)
	if err != nil {
		return nil, err
	}
	// The server reduces with the wire default objective and serves the
	// reduced description on the discrete representation.
	red := core.NewCache().Reduce(m.Expand(), core.Objective{Kind: core.ResUses}, 1)
	p := &mixPools{}
	rng := rand.New(rand.NewSource(mix(seed, 1)))
	for i := 0; i < mixBatchPool; i++ {
		c, err := newQueryCase(rng, red.Reduced, mixBatchOps, false)
		if err != nil {
			return nil, err
		}
		p.batch = append(p.batch, c)
	}
	for i := 0; i < mixStreamPool; i++ {
		c, err := newQueryCase(rng, red.Reduced, mixStreamOps, true)
		if err != nil {
			return nil, err
		}
		p.stream = append(p.stream, c)
	}

	// Schedule ops carry corpus loops within the wire's loop limits.
	strata := loopgen.DefaultStrata(1 << 20)
	strata.Seed = mix(seed, 2)
	s, err := loopgen.NewStream(m, strata)
	if err != nil {
		return nil, err
	}
	for len(p.sched) < mixSchedPool {
		g, ok := s.Next()
		if !ok {
			return nil, fmt.Errorf("serve-mix: corpus ended after %d schedule loops", len(p.sched))
		}
		if len(g.Nodes) > 64 || len(g.Edges) > 256 {
			continue
		}
		spec := &serve.LoopSpec{}
		for _, n := range g.Nodes {
			spec.Ops = append(spec.Ops, n.Op)
		}
		for _, e := range g.Edges {
			spec.Edges = append(spec.Edges, serve.LoopEdge{From: e.From, To: e.To, Delay: e.Delay, Dist: e.Dist})
		}
		body, err := json.Marshal(serve.BatchRequest{Machine: mixMachine, Ops: []serve.BatchOp{{Fn: "schedule", Scheduler: "ims", Loop: spec}}})
		if err != nil {
			return nil, err
		}
		p.sched = append(p.sched, schedCase{body: body, g: g})
	}

	mrng := rand.New(rand.NewSource(mix(seed, 3)))
	for i := 0; i < mixReducePool; i++ {
		text := mdl.Print(resmodel.Random(mrng, resmodel.DefaultRandomConfig()))
		rm, err := mdl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("serve-mix: random machine %d: %w", i, err)
		}
		rr := core.NewCache().Reduce(rm.Expand(), core.Objective{Kind: core.ResUses}, 1)
		body, err := json.Marshal(serve.ReduceRequest{Name: fmt.Sprintf("rnd%04d", i), MDL: text})
		if err != nil {
			return nil, err
		}
		p.reduce = append(p.reduce, reduceCase{body: body, resources: rr.NumResources(), usages: rr.NumUsages()})
	}
	return p, nil
}

// newQueryCase draws n check/first_free/assign/free ops on a linear
// table, answering them on an in-process discrete module as it goes, so
// every assign lands on a free slot.
func newQueryCase(rng *rand.Rand, e *resmodel.Expanded, n int, stream bool) (queryCase, error) {
	mod := query.NewDiscrete(e, 0)
	type placed struct{ op, cycle, id int }
	var live []placed
	var c queryCase
	add := func(op serve.BatchOp, a opAnswer) {
		c.ops = append(c.ops, op)
		c.want = append(c.want, a)
	}
	for id := 1; len(c.ops) < n; id++ {
		if len(live) > 0 && (rng.Intn(3) == 0 || len(c.ops) > n-3) {
			k := rng.Intn(len(live))
			pl := live[k]
			live = slices.Delete(live, k, k+1)
			mod.Free(pl.op, pl.cycle, pl.id)
			add(serve.BatchOp{Fn: "free", Op: pl.op, Cycle: pl.cycle, ID: pl.id}, opAnswer{fn: "free"})
			continue
		}
		op, cyc := rng.Intn(len(e.Ops)), rng.Intn(48)
		add(serve.BatchOp{Fn: "check", Op: op, Cycle: cyc}, opAnswer{fn: "check", ok: mod.Check(op, cyc)})
		at, ok := mod.FirstFree(op, cyc, cyc+31)
		add(serve.BatchOp{Fn: "first_free", Op: op, Lo: cyc, Hi: cyc + 31}, opAnswer{fn: "first_free", ok: ok, cycle: at})
		if ok {
			// The server checks an assign's slot before taking it, and
			// counts that check; so does the reference.
			mod.Check(op, at)
			mod.Assign(op, at, id)
			live = append(live, placed{op, at, id})
			add(serve.BatchOp{Fn: "assign", Op: op, Cycle: at, ID: id}, opAnswer{fn: "assign"})
		}
	}
	c.counters = *mod.Counters()
	c.replayNS = replayNS(e, c.ops)
	var err error
	if stream {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := range c.ops {
			if err = enc.Encode(&c.ops[i]); err != nil {
				return c, err
			}
		}
		c.body = b.Bytes()
	} else {
		c.body, err = json.Marshal(serve.BatchRequest{Machine: mixMachine, Ops: c.ops})
	}
	return c, err
}

// replayNS is the median in-process time of ops on a fresh discrete
// module: the query layer's share of serving them.
func replayNS(e *resmodel.Expanded, ops []serve.BatchOp) float64 {
	var ts []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		mod := query.NewDiscrete(e, 0)
		for i := range ops {
			op := &ops[i]
			switch op.Fn {
			case "check":
				mod.Check(op.Op, op.Cycle)
			case "first_free":
				mod.FirstFree(op.Op, op.Lo, op.Hi)
			case "assign":
				mod.Check(op.Op, op.Cycle)
				mod.Assign(op.Op, op.Cycle, op.ID)
			case "free":
				mod.Free(op.Op, op.Cycle, op.ID)
			}
		}
		ts = append(ts, float64(time.Since(t0)))
	}
	return median(ts)
}

// outcome is one finished operation of the open or closed loop.
type outcome struct {
	req      mixReq
	id       int       // index in its loop, the traced run's handler slot
	due      time.Time // when it was due
	issued   time.Time // when the generator queued it (due plus its lag)
	start    time.Time // when a sender took it
	end      time.Time
	bytes    int
	err      error
	response []byte // batch/schedule/reduce body, or the stream's lines
	span     int32  // the client span, in traced runs
}

// exec performs one operation; a stream is session create, the NDJSON
// stream and the delete.
func (env *serveEnv) exec(o *outcome) {
	p := env.pools
	switch o.req.kind {
	case kindBatch:
		o.bytes, o.err = env.post("/v1/batch", p.batch[o.req.idx].body, &o.response, o)
	case kindSchedule:
		o.bytes, o.err = env.post("/v1/batch", p.sched[o.req.idx].body, &o.response, o)
	case kindReduce:
		o.bytes, o.err = env.post("/v1/reduce", p.reduce[o.req.idx].body, &o.response, o)
	case kindStream:
		var si serve.SessionInfo
		n, err := env.post("/v1/sessions", []byte(`{"machine":"`+mixMachine+`"}`), &si, o)
		if err != nil {
			o.err = err
			return
		}
		req, err := http.NewRequest(http.MethodPost, env.base+"/v1/sessions/"+si.SessionID+"/stream", bytes.NewReader(p.stream[o.req.idx].body))
		if err != nil {
			o.err = err
			return
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		m, err := env.do(req, len(p.stream[o.req.idx].body), &o.response, o)
		if err != nil {
			o.err = err
			return
		}
		req, err = http.NewRequest(http.MethodDelete, env.base+"/v1/sessions/"+si.SessionID, nil)
		if err != nil {
			o.err = err
			return
		}
		k, err := env.do(req, 0, nil, o)
		o.bytes, o.err = n+m+k, err
	}
}

// loopResult summarizes one open-loop run at a fixed offered rate, or
// one closed-loop run.
type loopResult struct {
	outs     []outcome // completed operations, in due order
	lat      []float64 // ms from issue to completion, per completed operation
	lagP99   float64   // ms the generator ran late, windowed p99
	aborted  bool      // latency ran past 5x the limit and the loop stopped
	grew     bool      // the backlog grew over the loop
	failures int
}

// openLoop offers reqs at rate (requests/s) from one generator
// goroutine to mixSenders senders. Each operation is timed from when the
// generator issued it, so time spent queued behind busy senders counts;
// the generator's own lateness past the due time (timer wake-up on a
// shared host, not the server) is kept apart as lagP99.
func (env *serveEnv) openLoop(rate float64, reqs []mixReq) *loopResult {
	n := len(reqs)
	outs := make([]outcome, n)
	lag := make([]float64, 0, n)
	// The queue holds every request of the loop, so the generator never
	// blocks on busy senders: what waits in it is the backlog.
	queue := make(chan int, n)
	var abort atomic.Bool
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := 0; i < n && !abort.Load(); i++ {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			outs[i].due = due
			outs[i].issued = time.Now()
			lag = append(lag, ms(outs[i].issued.Sub(due)))
			queue <- i
		}
	}()
	limit := time.Duration(5 * mixLimitMS * float64(time.Millisecond))
	for w := 0; w < mixSenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if abort.Load() {
					continue
				}
				o := &outs[i]
				o.req, o.id = reqs[i], i
				traced := env.rec != nil && env.rec.on.Load()
				if traced {
					o.span = env.rec.tr.open("serve."+kindNames[o.req.kind], 0)
				}
				o.start = time.Now()
				env.exec(o)
				o.end = time.Now()
				if traced {
					env.rec.tr.close(o.span)
				}
				if o.end.Sub(o.issued) > limit {
					abort.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res := &loopResult{aborted: abort.Load(), lagP99: windowedP99(lag, mixWindows)}
	for i := range outs {
		if outs[i].end.IsZero() {
			continue
		}
		res.outs = append(res.outs, outs[i])
		res.lat = append(res.lat, ms(outs[i].end.Sub(outs[i].issued)))
	}
	// The backlog grew if requests of the last window waited for a
	// sender, at the median, longer than half the latency limit: a
	// server short of capacity lets the queue, and so the wait, grow
	// through the loop.
	if w := len(res.outs) / mixWindows; w > 0 {
		var wait []float64
		for _, o := range res.outs[len(res.outs)-w:] {
			wait = append(wait, ms(o.start.Sub(o.issued)))
		}
		res.grew = median(wait) > mixLimitMS/2
	}
	return res
}

// closedLoop sends reqs one after another on one connection, each as
// soon as the one before it completed.
func (env *serveEnv) closedLoop(reqs []mixReq) *loopResult {
	res := &loopResult{outs: make([]outcome, len(reqs))}
	for i := range reqs {
		o := &res.outs[i]
		o.req, o.id = reqs[i], i
		o.start = time.Now()
		o.due, o.issued = o.start, o.start
		env.exec(o)
		o.end = time.Now()
		res.lat = append(res.lat, ms(o.end.Sub(o.start)))
	}
	return res
}

// passes reports whether the loop met the latency limit without a
// growing backlog, and whether its generator kept up (valid).
func (s *loopResult) passes() (pass, valid bool) {
	valid = s.lagP99 <= mixGenLagMS
	pass = valid && !s.aborted && !s.grew && s.failures == 0 && len(s.lat) > 0 && windowedP99(s.lat, mixWindows) <= mixLimitMS
	return pass, valid
}

// mixRequests draws n operations of the mix.
func mixRequests(rng *rand.Rand, p *mixPools, n int) []mixReq {
	reqs := make([]mixReq, n)
	for i := range reqs {
		k := pickKind(rng)
		size := [numKinds]int{len(p.batch), len(p.sched), len(p.stream), len(p.reduce)}[k]
		reqs[i] = mixReq{kind: k, idx: rng.Intn(size)}
	}
	return reqs
}

// mixCheck accumulates the served answers' checks and quality numbers.
type mixCheck struct {
	rep           *report
	sumII, sumMII int
	schedules     int
	atMII         int
}

// verify checks every completed operation of a loop against its
// in-process or independent answer and counts failures into rep.
func (env *serveEnv) verify(s *loopResult, mc *mixCheck) {
	for i := range s.outs {
		o := &s.outs[i]
		ok := mc.rep.check(o.err == nil, "%s request: %v", kindNames[o.req.kind], o.err)
		if ok {
			if err := env.verifyOne(o, mc); err != nil {
				ok = mc.rep.check(false, "%s answer: %v", kindNames[o.req.kind], err)
			}
		}
		if !ok {
			s.failures++
		}
	}
}

func (env *serveEnv) verifyOne(o *outcome, mc *mixCheck) error {
	p := env.pools
	switch o.req.kind {
	case kindBatch:
		c := &p.batch[o.req.idx]
		var resp serve.BatchResponse
		if err := json.Unmarshal(o.response, &resp); err != nil {
			return err
		}
		if resp.Counters != c.counters {
			return fmt.Errorf("batch counters %+v, in-process %+v", resp.Counters, c.counters)
		}
		return compareAnswers(c, resp.Results)
	case kindStream:
		c := &p.stream[o.req.idx]
		var results []serve.BatchResult
		sc := bufio.NewScanner(bytes.NewReader(o.response))
		done := false
		for sc.Scan() {
			var line struct {
				serve.BatchResult
				Done  bool   `json:"done"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return err
			}
			if line.Error != "" {
				return fmt.Errorf("stream error line: %s", line.Error)
			}
			if line.Done {
				done = true
				break
			}
			results = append(results, line.BatchResult)
		}
		if !done {
			return fmt.Errorf("stream ended without its done line")
		}
		return compareAnswers(c, results)
	case kindSchedule:
		c := &p.sched[o.req.idx]
		var resp serve.BatchResponse
		if err := json.Unmarshal(o.response, &resp); err != nil {
			return err
		}
		if len(resp.Results) != 1 {
			return fmt.Errorf("schedule answered %d results", len(resp.Results))
		}
		r := resp.Results[0]
		if r.OK == nil || !*r.OK || r.II == nil || r.MII == nil {
			return fmt.Errorf("%s: unscheduled", c.g.Name)
		}
		if *r.II < *r.MII {
			return fmt.Errorf("%s: II %d below MII %d", c.g.Name, *r.II, *r.MII)
		}
		if err := env.orc.certify(c.g, *r.II, r.Times, r.Alts); err != nil {
			return err
		}
		mc.sumII += *r.II
		mc.sumMII += *r.MII
		mc.schedules++
		if *r.II == *r.MII {
			mc.atMII++
		}
	case kindReduce:
		c := &p.reduce[o.req.idx]
		var resp serve.ReduceResponse
		if err := json.Unmarshal(o.response, &resp); err != nil {
			return err
		}
		if resp.ReducedResources != c.resources || resp.ReducedUsages != c.usages {
			return fmt.Errorf("reduce %s: %d resources / %d usages, in-process %d / %d",
				resp.Name, resp.ReducedResources, resp.ReducedUsages, c.resources, c.usages)
		}
	}
	return nil
}

// compareAnswers checks served query results against the in-process
// answers of the same ops.
func compareAnswers(c *queryCase, got []serve.BatchResult) error {
	if len(got) != len(c.want) {
		return fmt.Errorf("%d results for %d ops", len(got), len(c.want))
	}
	for i, w := range c.want {
		g := got[i]
		switch w.fn {
		case "check":
			if g.OK == nil || *g.OK != w.ok {
				return fmt.Errorf("op %d check: served %v, in-process %v", i, g.OK, w.ok)
			}
		case "first_free":
			if g.OK == nil || *g.OK != w.ok || (w.ok && (g.Cycle == nil || *g.Cycle != w.cycle)) {
				return fmt.Errorf("op %d first_free: served ok=%v cycle=%v, in-process %v %d", i, g.OK, g.Cycle, w.ok, w.cycle)
			}
		}
	}
	return nil
}

// fixedRequests is the number of operations of the fixed-rate phase,
// mixFixedShare of the measured phase.
func fixedRequests(seconds float64) int {
	return int(mixRate * seconds * mixFixedShare)
}

func runServeMix(cfg *runConfig) error {
	rep := cfg.rep
	pools, err := buildPools(cfg.seed)
	if err != nil {
		return err
	}
	// Cold set-up, setupRepeats times: a new server, its listener and
	// the wire registration of Cydra 5. The last one serves the run.
	var rec *handlerRec
	if cfg.trace {
		rec = &handlerRec{tr: newTracer(), ns: make([]atomic.Int64, fixedRequests(cfg.seconds))}
		if err := traceSetupStages(cfg, rec.tr); err != nil {
			return err
		}
	}
	var secs []float64
	var env *serveEnv
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.stop()
		}
		t0 := time.Now()
		env, err = startServer(rec)
		if err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	defer env.stop()
	env.pools = pools
	if env.orc, err = newOracle(); err != nil {
		return err
	}
	if cfg.trace {
		return traceServeMix(cfg, env)
	}
	rep.set("setup_s", median(secs))

	fixedRng := rand.New(rand.NewSource(mix(cfg.seed, 4)))
	capRng := rand.New(rand.NewSource(mix(cfg.seed, 5)))
	// Warm the handlers, the connections and the reduction LRU.
	warm := env.openLoop(mixRate, mixRequests(fixedRng, pools, int(mixRate/2)))
	env.verify(warm, &mixCheck{rep: rep})

	mc := &mixCheck{rep: rep}    // the fixed-rate phase's served schedules
	capMC := &mixCheck{rep: rep} // the closed loop's
	var lat, capRates []float64
	capOps := 0
	roundFixed := fixedRequests(cfg.seconds) / mixRounds
	capSeconds := cfg.seconds * (1 - mixFixedShare) / mixRounds
	for round := 0; round < mixRounds; round++ {
		fixed := env.openLoop(mixRate, mixRequests(fixedRng, pools, roundFixed))
		env.verify(fixed, mc)
		lat = append(lat, fixed.lat...)
		rep.check(!fixed.aborted, "fixed-rate round %d aborted past the latency limit", round)
		if pass, valid := fixed.passes(); !valid || !pass {
			fmt.Printf("# serve-mix: fixed rate %.0f/s, round %d: valid %v, within limit %v (generator p99 lag %.2f ms)\n", mixRate, round, valid, pass, fixed.lagP99)
		}
		// Closed-loop windows until the round's share of time is used.
		end := time.Now().Add(time.Duration(capSeconds * float64(time.Second)))
		for w := 0; w == 0 || time.Now().Before(end); w++ {
			s := env.closedLoop(mixRequests(capRng, pools, mixCapWindow))
			env.verify(s, capMC)
			capRates = append(capRates, float64(len(s.outs))/s.outs[len(s.outs)-1].end.Sub(s.outs[0].start).Seconds())
			capOps += len(s.outs)
		}
	}
	rep.set("p50_ms", quantile(slices.Clone(lat), 0.50))
	rep.note("p99_ms", windowedP99(lat, len(lat)/mixP99Span), "ms")
	rep.set("ii_ratio", frac(float64(mc.sumII), float64(mc.sumMII)))
	rep.set("proven_frac", frac(float64(mc.atMII), float64(mc.schedules)))
	maxRPS := median(capRates)
	rep.set("max_rps", maxRPS)
	// Served schedule ops per second at that rate: their share of the
	// closed loop's operations.
	rep.set("loops_per_s", maxRPS*frac(float64(capMC.schedules), float64(capOps)))
	fmt.Printf("# serve-mix: %d rounds, max_rps %.0f over %d closed-loop windows of %d operations\n", mixRounds, maxRPS, len(capRates), mixCapWindow)
	return nil
}

// windowedP99 is the median over n equal consecutive windows of xs of
// each window's p99. xs is not reordered.
func windowedP99(xs []float64, n int) float64 {
	var p99s []float64
	w := len(xs) / max(n, 1)
	for i := 0; i < n && w > 0; i++ {
		p99s = append(p99s, quantile(slices.Clone(xs[i*w:(i+1)*w]), 0.99))
	}
	return median(p99s)
}

// traceServeMix runs the fixed-rate phase twice on one server, first
// with the handler timer off and then on; served answers must agree and
// the traced run reports where the request time went.
func traceServeMix(cfg *runConfig, env *serveEnv) error {
	rep := cfg.rep
	n := fixedRequests(cfg.seconds)
	rng := rand.New(rand.NewSource(mix(cfg.seed, 4)))
	warm := env.openLoop(mixRate, mixRequests(rng, env.pools, int(mixRate/2)))
	env.verify(warm, &mixCheck{rep: rep})
	reqs := mixRequests(rng, env.pools, n)

	plainMC := &mixCheck{rep: rep}
	plain := env.openLoop(mixRate, reqs)
	env.verify(plain, plainMC)

	env.rec.on.Store(true)
	tracedMC := &mixCheck{rep: rep}
	traced := env.openLoop(mixRate, reqs)
	env.rec.on.Store(false)
	env.verify(traced, tracedMC)
	rep.check(plainMC.sumII == tracedMC.sumII && plainMC.schedules == tracedMC.schedules,
		"traced schedules (ΣII %d over %d) differ from untraced (ΣII %d over %d)",
		tracedMC.sumII, tracedMC.schedules, plainMC.sumII, plainMC.schedules)

	// The median time a sender is busy with an operation stands in for
	// wall time: an open loop at a fixed rate takes the same wall time
	// whatever the server costs.
	busy := func(s *loopResult) float64 {
		var t []float64
		for i := range s.outs {
			t = append(t, float64(s.outs[i].end.Sub(s.outs[i].start)))
		}
		return median(t)
	}
	rep.set("trace.overhead_frac", busy(traced)/busy(plain)-1)

	var handler [numKinds][]float64
	var transport []float64
	var replay, served float64
	var bytesMoved, count float64
	rejected := 0
	for i := range traced.outs {
		o := &traced.outs[i]
		var se *statusError
		if errors.As(o.err, &se) && se.code == http.StatusTooManyRequests {
			rejected++
		}
		hns := float64(env.rec.ns[o.id].Load())
		handler[o.req.kind] = append(handler[o.req.kind], hns/1e3)
		transport = append(transport, (float64(o.end.Sub(o.start))-hns)/1e3)
		bytesMoved += float64(o.bytes)
		count++
		switch o.req.kind {
		case kindBatch:
			replay += env.pools.batch[o.req.idx].replayNS
			served += hns
		case kindStream:
			replay += env.pools.stream[o.req.idx].replayNS
			served += hns
		}
	}
	for k := mixKind(0); k < numKinds; k++ {
		rep.set("serve."+kindNames[k]+".handler_p50_us", quantile(handler[k], 0.50))
		rep.set("serve."+kindNames[k]+".handler_p99_us", quantile(handler[k], 0.99))
	}
	rep.set("serve.transport_us", median(transport))
	rep.set("serve.query_share", frac(replay, served))
	rep.set("serve.rejected_frac", frac(float64(rejected), count))
	rep.set("serve.bytes_per_req", frac(bytesMoved, count))
	rep.set("serve.gen_lag_ms", traced.lagP99)
	hits, misses := env.srv.Cache().Stats()
	rep.set("core.cache.hit_frac", frac(float64(hits), float64(hits+misses)))
	rep.set("sched.sum_ii", float64(tracedMC.sumII))
	return env.rec.tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("serve-mix-seed%d.jsonl", cfg.seed)))
}
