package main

import (
	"slices"
	"testing"

	"repro/internal/ddg"
	"repro/internal/query"
	"repro/internal/sched"
)

// TestWrapperForwardsOptionalInterfaces pins that the timing wrapper
// implements RangeQuerier and AltGrouper over every backend the
// benchmark wraps and forwards Counters: a wrapper that dropped
// RangeQuerier would silently switch the schedulers to the naive scan
// whenever tracing is on.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	st, err := coldSetup()
	if err != nil {
		t.Fatal(err)
	}
	bv, err := query.NewBitvector(st.red.Reduced, query.MaxCyclesPerWord(len(st.red.Reduced.Resources), 64), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]query.Module{
		"discrete":  query.NewDiscrete(st.red.Reduced, 8),
		"bitvector": bv,
		"auto":      st.factory(8),
	}
	for name, mod := range mods {
		var w query.Module = wrapModule(mod, &queryStats{})
		_, rq := w.(query.RangeQuerier)
		_, ag := w.(query.AltGrouper)
		if !rq || !ag {
			t.Errorf("%s: wrapper RangeQuerier %v, AltGrouper %v", name, rq, ag)
		}
		if w.Counters() != mod.Counters() {
			t.Errorf("%s: wrapper does not forward Counters", name)
		}
	}
}

// TestTracedRunsMatchUntraced pins that tracing changes no exact count:
// the ims-stream corpus gives the same ΣII, decisions and query work
// through the traced pipeline as through ScheduleStream, and the exact
// search gives the same outcomes, node counts and query work.
func TestTracedRunsMatchUntraced(t *testing.T) {
	st, err := coldSetup()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	plain, _, err := plainIMSPass(st, seed)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedIMSPass(st, seed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if traced.stats != plain {
		t.Errorf("ims-stream: traced %+v, untraced %+v", traced.stats, plain)
	}
	if traced.q.firstFreeAlt.calls == 0 {
		t.Errorf("ims-stream: traced pass issued no range queries")
	}

	loops, err := optCorpus(st, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every easy loop and the first two hard ones keep the test short.
	var sub []*ddg.Graph
	hard := 0
	for _, g := range loops {
		r := sched.Schedule(g, st.m, st.factory, sched.DefaultConfig())
		if r.II > r.MII {
			if hard == 2 {
				continue
			}
			hard++
		}
		sub = append(sub, g)
	}
	p := optPass(st, sub, nil)
	q := tracedOptPass(st, sub, newTracer())
	if !slices.Equal(p.outs, q.outs) {
		t.Errorf("exact-search: traced outcomes differ from untraced")
	}
	if queryWork(p.counters) != queryWork(q.counters) {
		t.Errorf("exact-search: traced query work %d, untraced %d", queryWork(q.counters), queryWork(p.counters))
	}
	var nodes int64
	for _, o := range p.outs {
		nodes += o.nodes
	}
	if nodes != q.nodes || nodes == 0 {
		t.Errorf("exact-search: traced %d nodes, untraced %d", q.nodes, nodes)
	}
}

// TestServeMixShort runs a short serve-mix, untraced and traced: every
// served answer must pass its check, and tracing must not change them.
// Under -race it runs the traced half, whose handler middleware and span
// recorder are shared between goroutines, for the race detector alone.
func TestServeMixShort(t *testing.T) {
	var e2e, layers []specMetric
	for _, n := range []string{"setup_s", "loops_per_s", "ii_ratio", "proven_frac", "p50_ms", "max_rps"} {
		e2e = append(e2e, specMetric{Name: n})
	}
	for _, n := range []string{"serve.transport_us", "serve.query_share", "serve.rejected_frac", "serve.bytes_per_req",
		"serve.gen_lag_ms", "core.cache.hit_frac", "sched.sum_ii", "trace.overhead_frac", "core.resources", "core.usages"} {
		layers = append(layers, specMetric{Name: n})
	}
	for _, k := range kindNames {
		layers = append(layers, specMetric{Name: "serve." + k + ".handler_p50_us"}, specMetric{Name: "serve." + k + ".handler_p99_us"})
	}
	for _, s := range []string{"mdl.parse_ms", "resmodel.expand_ms", "forbidden.matrix_ms", "core.genset_ms", "core.prune_ms",
		"core.select_ms", "core.reduce_ms", "core.verify_ms", "query.select_ms"} {
		layers = append(layers, specMetric{Name: s})
	}
	for _, trace := range []bool{false, true} {
		if !trace && raceBuild {
			t.Log("untraced run skipped under -race: the instrumented server cannot sustain the fixed rate")
			continue
		}
		ms := e2e
		if trace {
			ms = layers
		}
		cfg := &runConfig{seed: 3, seconds: 2, trace: trace, traceDir: t.TempDir(), rep: newReport(ms)}
		if err := runServeMix(cfg); err != nil {
			t.Fatal(err)
		}
		// Under -race the instrumented server falls behind the fixed rate
		// and passes stop part-way, so their answers cannot be compared;
		// that run is there for the race detector.
		if cfg.rep.attempted == 0 || (cfg.rep.failed != 0 && !raceBuild) {
			t.Fatalf("trace %v: %d of %d failed: %v", trace, cfg.rep.failed, cfg.rep.attempted, cfg.rep.problems)
		}
	}
}
