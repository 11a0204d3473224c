package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

const (
	// setupRepeats cold set-ups run per workload; setup_s is their median.
	setupRepeats = 9
	// selectII is the initiation interval of the set-up's first
	// query.Select, a mid-range II of the corpus.
	selectII = 16
)

// cydra5MDL is the Cydra 5 description as MDL text. Every set-up parses
// it afresh, so no layer sees a machine pointer it has seen before.
var cydra5MDL = mdl.Print(machines.Cydra5())

// kWordObjective is the 64-cycle-word objective of the bitvector
// representation the scheduling stack uses.
var kWordObjective = core.Objective{Kind: core.KCycleWord, K: 64}

// stack is a ready scheduling stack: the parsed machine, its verified
// reduction and the module factory the schedulers draw from.
type stack struct {
	m       *resmodel.Machine
	red     *core.Result
	factory sched.ModuleFactory
	backend string // the backend query.Select picked at selectII
}

// coldSetup runs MDL text to a ready module factory: mdl.Parse, Expand,
// core.Reduce on a fresh cache, Verify and the first query.Select. The
// reduction is new, so the pointer-keyed selection caches start cold.
func coldSetup() (*stack, error) {
	m, err := mdl.Parse(cydra5MDL)
	if err != nil {
		return nil, err
	}
	red := core.NewCache().Reduce(m.Expand(), kWordObjective, 1)
	if err := red.Verify(); err != nil {
		return nil, err
	}
	sel, err := query.Select(red.Reduced, query.Policy{Representation: "auto", II: selectII})
	if err != nil {
		return nil, err
	}
	return &stack{m: m, red: red, factory: autoFactory(red.Reduced), backend: sel.Backend}, nil
}

// autoFactory selects a module per II the way the scheduling stack does:
// query.Select "auto" on the reduced description.
func autoFactory(e *resmodel.Expanded) sched.ModuleFactory {
	return func(ii int) query.Module {
		sel, err := query.Select(e, query.Policy{Representation: "auto", II: ii})
		if err != nil {
			// "auto" falls back to discrete and never fails.
			panic(fmt.Sprintf("perfbench: query.Select auto at II %d: %v", ii, err))
		}
		return sel.Module
	}
}

// timedSetups runs setupRepeats cold set-ups and returns the median time
// in seconds and the last stack.
func timedSetups() (float64, *stack, error) {
	var secs []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := coldSetup()
		if err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = s
	}
	return median(secs), st, nil
}

// traceSetupStages times each set-up stage by calling the stage
// functions in turn (the same ones core.Reduce chains), repeated
// setupRepeats times, and reports the median of each stage.
func traceSetupStages(cfg *runConfig, tr *tracer) error {
	stages := map[string][]float64{}
	var resources, usages int
	for i := 0; i < setupRepeats; i++ {
		root := tr.open("setup", 0)
		timed := func(name string, f func()) {
			id := tr.open(name, root)
			t0 := time.Now()
			f()
			stages[name] = append(stages[name], ms(time.Since(t0)))
			tr.close(id)
		}
		var (
			m         *resmodel.Machine
			err       error
			e         *resmodel.Expanded
			fm, cm    *forbidden.Matrix
			gen       []*core.Resource
			pruned    []*core.Resource
			red       *core.Result
			selErr    error
			verifyErr error
		)
		timed("mdl.parse_ms", func() { m, err = mdl.Parse(cydra5MDL) })
		if err != nil {
			return err
		}
		timed("resmodel.expand_ms", func() { e = m.Expand() })
		timed("forbidden.matrix_ms", func() {
			fm = forbidden.Compute(e)
			cm = fm.Collapse(fm.ComputeClasses())
		})
		timed("core.genset_ms", func() { gen = core.GeneratingSet(cm, nil) })
		timed("core.prune_ms", func() { pruned = core.Prune(cm, gen) })
		timed("core.select_ms", func() { core.SelectCover(cm, pruned, kWordObjective) })
		timed("core.reduce_ms", func() { red = core.NewCache().Reduce(e, kWordObjective, 1) })
		timed("core.verify_ms", func() { verifyErr = red.Verify() })
		if verifyErr != nil {
			return verifyErr
		}
		timed("query.select_ms", func() {
			_, selErr = query.Select(red.Reduced, query.Policy{Representation: "auto", II: selectII})
		})
		if selErr != nil {
			return selErr
		}
		tr.close(root)
		resources, usages = red.NumResources(), red.NumUsages()
	}
	for name, xs := range stages {
		cfg.rep.set(name, median(xs))
	}
	cfg.rep.set("core.resources", float64(resources))
	cfg.rep.set("core.usages", float64(usages))
	return nil
}
