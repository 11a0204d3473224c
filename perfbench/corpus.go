package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/query"
	"repro/internal/sched"
)

const (
	// imsBlockLoops loops make one timed block; loops_per_s is the
	// median block rate.
	imsBlockLoops = 2000
	// imsPassBlocks blocks make the ims-stream corpus (20k loops). The
	// measured phase repeats passes over it.
	imsPassBlocks = 10
	// imsCheckEvery: every imsCheckEvery-th corpus loop is re-scheduled
	// on the original description and certified.
	imsCheckEvery = 40
)

// imsBlock is the strata of one ims-stream block: the default strata
// under a seed derived from the run seed and the block index.
func imsBlock(seed int64, block int) loopgen.Strata {
	st := loopgen.DefaultStrata(imsBlockLoops)
	st.Seed = mix(seed, uint64(block)+100)
	return st
}

// blockStats is what one streamed block produced; passes over the same
// corpus must reproduce it exactly.
type blockStats struct {
	loops, failed int
	sumII, sumMII int64
	decisions     int64
	work          int64
}

func fromStream(s sched.StreamStats) blockStats {
	return blockStats{s.Loops, s.Failed, s.SumII, s.SumMII, s.Decisions, queryWork(s.Counters)}
}

// streamBlock schedules one block through sched.ScheduleStream with one
// scheduling worker (plus the generator goroutine ScheduleStream runs).
func streamBlock(st *stack, strata loopgen.Strata) (blockStats, time.Duration, error) {
	s, err := loopgen.NewStream(st.m, strata)
	if err != nil {
		return blockStats{}, 0, err
	}
	t0 := time.Now()
	stats := sched.ScheduleStream(s.Next, st.m, st.factory, sched.DefaultConfig(), 1, 0)
	return fromStream(stats), time.Since(t0), nil
}

func runIMSStream(cfg *runConfig) error {
	if cfg.trace {
		return traceIMSStream(cfg)
	}
	rep := cfg.rep
	setupS, st, err := timedSetups()
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)
	orc, err := newOracle()
	if err != nil {
		return err
	}
	// Warm the steady-state path: one untimed block of another corpus.
	if _, _, err := streamBlock(st, imsBlock(cfg.seed, 99)); err != nil {
		return err
	}

	// Measured phase: passes over the corpus until the time is used, and
	// at least one whole pass. Each streamed block is followed by a
	// latency block: the same loops again through one arena, timing every
	// Arena.Schedule call, so that p50_ms, the median of the blocks'
	// medians, samples the whole run and not one stretch of it. The
	// output checks run in the first pass's latency blocks, outside the
	// timed calls.
	a := sched.NewArena(st.factory)
	first := make([]blockStats, imsPassBlocks)
	var rates, p50s, p99s []float64
	lat := make([]float64, 0, imsBlockLoops)
	atMII, n := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for b := 0; b < imsPassBlocks || time.Now().Before(deadline); b++ {
		strata := imsBlock(cfg.seed, b%imsPassBlocks)
		bs, d, err := streamBlock(st, strata)
		if err != nil {
			return err
		}
		rates = append(rates, float64(bs.loops)/d.Seconds())
		if b < imsPassBlocks {
			first[b] = bs
			rep.check(bs.loops == imsBlockLoops, "block %d streamed %d loops", b, bs.loops)
			rep.tally(int64(bs.loops), int64(bs.failed), "streamed loops")
		} else {
			rep.check(bs == first[b%imsPassBlocks], "pass %d block %d differs from the first pass", b/imsPassBlocks, b%imsPassBlocks)
		}

		s, err := loopgen.NewStream(st.m, strata)
		if err != nil {
			return err
		}
		lat = lat[:0]
		for g, ok := s.Next(); ok; g, ok = s.Next() {
			t0 := time.Now()
			r := a.Schedule(g, st.m, sched.DefaultConfig())
			lat = append(lat, ms(time.Since(t0)))
			if b >= imsPassBlocks {
				continue
			}
			if r.OK && r.II == r.MII {
				atMII++
			}
			if n%imsCheckEvery == 0 {
				if rep.check(r.OK, "%s unscheduled", g.Name) {
					err := orc.certify(g, r.II, r.Time, r.Alt)
					rep.check(err == nil, "%v", err)
					err = orc.sameAsOriginal(g, st.m, &r)
					rep.check(err == nil, "%v", err)
				}
			}
			n++
		}
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	var sumII, sumMII int64
	for _, bs := range first {
		sumII += bs.sumII
		sumMII += bs.sumMII
	}
	rep.set("loops_per_s", median(rates))
	rep.set("max_rps", median(rates)) // a closed loop: its highest sustained rate is its throughput
	rep.set("ii_ratio", frac(float64(sumII), float64(sumMII)))
	rep.set("proven_frac", frac(float64(atMII), float64(n)))
	rep.set("p50_ms", median(p50s))
	rep.note("p99_ms", median(p99s), "ms")
	fmt.Printf("# ims-stream: %d timed blocks of %d loops, backend %s\n", len(rates), imsBlockLoops, st.backend)
	return nil
}

// traceIMSStream runs the ims-stream corpus untraced through
// ScheduleStream and traced through a pipeline of the same shape (a
// generator goroutine filling the next chunk while one worker schedules
// the current one on a single arena), in turn, twice. The traced pass
// times each Stream.Next and Arena.Schedule call and every query-module
// call through the wrapper; Graph.MII is timed in a pass of its own.
// The exact counts of the traced and untraced passes must agree.
func traceIMSStream(cfg *runConfig) error {
	rep := cfg.rep
	tr := newTracer()
	if err := traceSetupStages(cfg, tr); err != nil {
		return err
	}
	_, st, err := timedSetups()
	if err != nil {
		return err
	}
	if _, _, err := streamBlock(st, imsBlock(cfg.seed, 99)); err != nil {
		return err
	}
	// Untraced and traced passes alternate, so a slow spell of the host
	// does not land on one side only.
	const rounds = 2
	var plain blockStats
	var plainNS, tracedNS float64
	var traced *imsTrace
	for round := 0; round < rounds; round++ {
		bs, d, err := plainIMSPass(st, cfg.seed)
		if err != nil {
			return err
		}
		plain, plainNS = bs, plainNS+float64(d)
		if traced, err = tracedIMSPass(st, cfg.seed, tr); err != nil {
			return err
		}
		tracedNS += traced.wallNS
	}
	rep.check(traced.stats == plain, "traced pass %+v, untraced %+v", traced.stats, plain)
	rep.tally(int64(plain.loops), int64(plain.failed), "streamed loops")

	loops := float64(traced.stats.loops)
	rep.set("trace.overhead_frac", tracedNS/plainNS-1)
	qNS := traced.q.totalNS()
	// The query layer's share of the program's own time: the sampled
	// query time over an untraced pass's wall time.
	rep.set("query.share", qNS/(plainNS/rounds))
	rep.set("loopgen.next_us", traced.nextNS/loops/1e3)
	rep.set("loopgen.ops_per_loop", float64(traced.ops)/loops)
	miiNS, err := imsMIIPass(st, cfg.seed, tr)
	if err != nil {
		return err
	}
	rep.set("ddg.mii_us", miiNS/loops/1e3)
	rep.set("sched.ims.self_us", (traced.schedNS-qNS)/loops/1e3)
	rep.set("sched.ims.decisions_per_loop", float64(traced.stats.decisions)/loops)
	rep.set("sched.ims.attempts_per_loop", float64(traced.attempts)/loops)
	rep.set("sched.ims.reversed_frac", frac(float64(traced.reversed), float64(traced.stats.decisions)))
	rep.set("sched.sum_ii", float64(traced.stats.sumII))
	rep.set("sched.decisions", float64(traced.stats.decisions))
	reportQuery(rep, traced.q, traced.counters)
	if err := traceExactSearch(cfg, st, tr); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("ims-stream-seed%d.jsonl", cfg.seed)))
}

// plainIMSPass streams the whole ims-stream corpus, block by block,
// through ScheduleStream.
func plainIMSPass(st *stack, seed int64) (blockStats, time.Duration, error) {
	var sum blockStats
	var total time.Duration
	for b := 0; b < imsPassBlocks; b++ {
		bs, d, err := streamBlock(st, imsBlock(seed, b))
		if err != nil {
			return sum, 0, err
		}
		sum.add(bs)
		total += d
	}
	return sum, total, nil
}

func (b *blockStats) add(o blockStats) {
	b.loops += o.loops
	b.failed += o.failed
	b.sumII += o.sumII
	b.sumMII += o.sumMII
	b.decisions += o.decisions
	b.work += o.work
}

// imsTrace is one traced ims-stream pass.
type imsTrace struct {
	stats                   blockStats
	counters                query.Counters
	q                       *queryStats
	wallNS                  float64
	nextNS, schedNS         float64
	ops, attempts, reversed int64
}

// timeMII times Graph.MII on g under a span of parent. The schedulers
// compute MII inside their own calls; the traced runs time Graph.MII in
// a pass of its own over the same loops, so that the traced scheduler
// passes do exactly the program's work.
func timeMII(g *ddg.Graph, usage ddg.MachineUsage, tr *tracer, parent int32) float64 {
	id := tr.open("ddg.mii", parent)
	t0 := time.Now()
	g.MII(usage)
	d := float64(time.Since(t0))
	tr.close(id)
	return d
}

// imsMIIPass times Graph.MII over the ims-stream corpus.
func imsMIIPass(st *stack, seed int64, tr *tracer) (float64, error) {
	usage := ddg.MachineUsage{M: st.m}
	root := tr.open("ims-stream.mii", 0)
	defer tr.close(root)
	var ns float64
	for b := 0; b < imsPassBlocks; b++ {
		s, err := loopgen.NewStream(st.m, imsBlock(seed, b))
		if err != nil {
			return 0, err
		}
		for g, ok := s.Next(); ok; g, ok = s.Next() {
			ns += timeMII(g, usage, tr, root)
		}
	}
	return ns, nil
}

func tracedIMSPass(st *stack, seed int64, tr *tracer) (*imsTrace, error) {
	const chunk = 256 // ScheduleStream's default chunk
	out := &imsTrace{q: &queryStats{}}
	a := sched.NewArena(tracedFactory(st.factory, out.q))
	cfg := sched.DefaultConfig()
	root := tr.open("ims-stream.pass", 0)

	// The generator runs one chunk ahead of the scheduler, as in
	// ScheduleStream; the channel holds that one chunk.
	chunks := make(chan []*ddg.Graph, 1)
	genErr := make(chan error, 1)
	var nextNS float64
	go func() {
		defer close(chunks)
		for b := 0; b < imsPassBlocks; b++ {
			s, err := loopgen.NewStream(st.m, imsBlock(seed, b))
			if err != nil {
				genErr <- err
				return
			}
			for {
				buf := make([]*ddg.Graph, 0, chunk)
				for len(buf) < chunk {
					id := tr.open("loopgen.next", root)
					t0 := time.Now()
					g, ok := s.Next()
					nextNS += float64(time.Since(t0))
					tr.close(id)
					if !ok {
						break
					}
					buf = append(buf, g)
				}
				if len(buf) > 0 {
					chunks <- buf
				}
				if len(buf) < chunk {
					break
				}
			}
		}
		genErr <- nil
	}()

	var res sched.Result
	t0 := time.Now()
	for buf := range chunks {
		for _, g := range buf {
			out.ops += int64(len(g.Nodes))
			id := tr.open("sched.ims", root)
			s0 := time.Now()
			a.ScheduleInto(&res, g, st.m, cfg)
			out.schedNS += float64(time.Since(s0))
			tr.close(id)

			out.stats.loops++
			if res.OK {
				out.stats.sumII += int64(res.II)
			} else {
				out.stats.failed++
			}
			out.stats.sumMII += int64(res.MII)
			out.stats.decisions += int64(res.Decisions)
			out.attempts += int64(res.Attempts)
			out.reversed += int64(res.Reversed)
		}
	}
	out.wallNS = float64(time.Since(t0))
	tr.close(root)
	if err := <-genErr; err != nil {
		return nil, err
	}
	out.nextNS = nextNS
	out.counters = a.Counters()
	out.stats.work = queryWork(out.counters)
	return out, nil
}

// optOutcome is what the exact search must reproduce for a loop.
type optOutcome struct {
	ok, proven bool
	ii, mii    int
	nodes      int64
}

func outcomeOf(r *sched.OptimalResult) optOutcome {
	return optOutcome{r.OK, r.Proven, r.II, r.MII, r.Nodes}
}

// optPass runs loops through one sched.Arena.Optimal at the default
// node budget; keep, if not nil, receives each loop's full result.
func optPass(st *stack, loops []*ddg.Graph, keep []sched.OptimalResult) *optTrace {
	out := &optTrace{outs: make([]optOutcome, len(loops))}
	a := sched.NewArena(st.factory)
	cfg := sched.DefaultOptimalConfig()
	var r sched.OptimalResult
	for i, g := range loops {
		a.OptimalInto(&r, g, st.m, cfg)
		out.outs[i] = outcomeOf(&r)
		if keep != nil {
			keep[i] = r
			keep[i].Time = slices.Clone(r.Time)
			keep[i].Alt = slices.Clone(r.Alt)
		}
	}
	out.counters = a.Counters()
	return out
}

// traceExactSearch gives the traced ims-stream run the exact scheduler's
// per-layer metrics: the exact-search corpus of optpool.go runs through
// Arena.Optimal at the default node budget, untraced and then traced.
// Every schedule is certified against the original description, and the
// traced pass must reproduce the untraced outcomes, node counts and
// query work.
func traceExactSearch(cfg *runConfig, st *stack, tr *tracer) error {
	rep := cfg.rep
	orc, err := newOracle()
	if err != nil {
		return err
	}
	loops, err := optCorpus(st, cfg.seed, nil)
	if err != nil {
		return err
	}
	results := make([]sched.OptimalResult, len(loops))
	plain := optPass(st, loops, results)
	traced := tracedOptPass(st, loops, tr)
	rep.check(slices.Equal(traced.outs, plain.outs), "traced exact-search outcomes differ from the untraced pass")
	rep.check(queryWork(traced.counters) == queryWork(plain.counters), "traced exact-search query work %d, untraced %d",
		queryWork(traced.counters), queryWork(plain.counters))
	fallbacks := 0
	for i, g := range loops {
		r := &results[i]
		if !rep.check(r.OK, "%s unscheduled by the exact search", g.Name) {
			continue
		}
		err := orc.certify(g, r.II, r.Time, r.Alt)
		rep.check(err == nil, "%v", err)
		if !r.Proven {
			fallbacks++
		}
	}
	n := float64(len(loops))
	rep.set("sched.opt.self_us", (traced.optNS-traced.q.totalNS())/n/1e3)
	rep.set("sched.opt.nodes", float64(traced.nodes))
	rep.set("sched.opt.ns_per_node", frac(traced.optNS, float64(traced.nodes)))
	rep.set("sched.opt.fallback_frac", float64(fallbacks)/n)
	return nil
}

// optTrace is one exact-search pass over a corpus; the traced pass
// fills the timing fields.
type optTrace struct {
	outs     []optOutcome
	counters query.Counters
	q        *queryStats
	optNS    float64
	nodes    int64
}

// tracedOptPass is optPass with timed Arena.Optimal calls and wrapped
// query modules.
func tracedOptPass(st *stack, loops []*ddg.Graph, tr *tracer) *optTrace {
	out := &optTrace{outs: make([]optOutcome, len(loops)), q: &queryStats{}}
	a := sched.NewArena(tracedFactory(st.factory, out.q))
	cfg := sched.DefaultOptimalConfig()
	root := tr.open("exact-search.pass", 0)
	var r sched.OptimalResult
	for i, g := range loops {
		id := tr.open("sched.opt", root)
		s0 := time.Now()
		a.OptimalInto(&r, g, st.m, cfg)
		out.optNS += float64(time.Since(s0))
		tr.close(id)
		out.outs[i] = outcomeOf(&r)
		out.nodes += r.Nodes
	}
	tr.close(root)
	out.counters = a.Counters()
	return out
}
