package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ddg"
	"repro/internal/loopgen"
)

const (
	// optLoops is the exact-search corpus size.
	optLoops = 300
	// optOpenLoops of them are open: the IMS schedule stays above MII and
	// an exact search at 8,192 nodes does not prove the loop. Open loops
	// carry nearly all of the exact search's cost, ~10 ms per operation
	// each, against ~30 µs for any other loop; left to chance, their
	// number (4 to 10 in 200) and size moved the pass time of one seed's
	// corpus to another's by 3x. 7 open loops make a pass of ~3.5 s on a
	// 2-core x86-64 VM.
	optOpenLoops = 7
	// optPoolLoops loops of the default strata under optPoolSeed make the
	// pool every exact-search corpus is drawn from.
	optPoolLoops = 4000
	optPoolSeed  = 20240
)

// optPoolText lists the open loops of the pool, one "index ops" line
// each. It was written once by the classification in optpool_test.go
// (go test -run TestOptPool -write-optpool) and is data from then on:
// the corpus a seed draws does not depend on the schedulers it measures.
//
//go:embed optpool.txt
var optPoolText string

// poolLoop is one open loop of the pool: its stream index and its
// operation count.
type poolLoop struct{ index, ops int }

func parseOptPool(text string) ([]poolLoop, error) {
	var open []poolLoop
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("optpool.txt:%d: want \"index ops\", got %q", n+1, line)
		}
		i, err1 := strconv.Atoi(f[0])
		ops, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || i < 0 || i >= optPoolLoops {
			return nil, fmt.Errorf("optpool.txt:%d: bad entry %q", n+1, line)
		}
		open = append(open, poolLoop{i, ops})
	}
	return open, nil
}

// nextTime accounts Stream.Next calls.
type nextTime struct {
	ns    float64
	calls int
}

// poolStream streams the exact-search pool.
func poolStream(st *stack) (*loopgen.Stream, error) {
	strata := loopgen.DefaultStrata(optPoolLoops)
	strata.Seed = optPoolSeed
	return loopgen.NewStream(st.m, strata)
}

// poolNext is the next pool loop; next, if not nil, accounts the call.
func poolNext(s *loopgen.Stream, next *nextTime) (*ddg.Graph, error) {
	t0 := time.Now()
	g, ok := s.Next()
	if next != nil {
		next.ns += float64(time.Since(t0))
		next.calls++
	}
	if !ok {
		return nil, fmt.Errorf("exact-search: the pool ended early")
	}
	return g, nil
}

// drawBySize marks k of the pool loops idx as chosen: sorted by size,
// idx is cut into k equal runs and one loop is drawn from each. Every
// seed so draws the same size distribution.
func drawBySize(rng *rand.Rand, idx, ops []int, k int, chosen []bool) {
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]] < ops[idx[b]] })
	for j := 0; j < k; j++ {
		lo, hi := j*len(idx)/k, (j+1)*len(idx)/k
		chosen[idx[lo+rng.Intn(hi-lo)]] = true
	}
}

// optCorpus draws the exact-search corpus for seed from the pool,
// optOpenLoops open loops and the rest others, each drawn by size, and
// keeps it in pool order. next, if not nil, accumulates the Stream.Next
// calls and their time.
func optCorpus(st *stack, seed int64, next *nextTime) ([]*ddg.Graph, error) {
	open, err := parseOptPool(optPoolText)
	if err != nil {
		return nil, err
	}
	if len(open) < optOpenLoops {
		return nil, fmt.Errorf("optpool.txt lists %d open loops, the corpus takes %d", len(open), optOpenLoops)
	}
	s, err := poolStream(st)
	if err != nil {
		return nil, err
	}
	ops := make([]int, optPoolLoops)
	for i := range ops {
		g, err := poolNext(s, next)
		if err != nil {
			return nil, err
		}
		ops[i] = len(g.Nodes)
	}

	isOpen := make([]bool, optPoolLoops)
	var openIdx, otherIdx []int
	for _, l := range open {
		// The pool file names loops by stream position; a loop of another
		// size means the generator's stream is not the one it was
		// classified on.
		if ops[l.index] != l.ops {
			return nil, fmt.Errorf("exact-search: pool loop %d has %d ops, optpool.txt says %d", l.index, ops[l.index], l.ops)
		}
		isOpen[l.index] = true
		openIdx = append(openIdx, l.index)
	}
	for i := range ops {
		if !isOpen[i] {
			otherIdx = append(otherIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, 7)))
	chosen := make([]bool, optPoolLoops)
	drawBySize(rng, openIdx, ops, optOpenLoops, chosen)
	drawBySize(rng, otherIdx, ops, optLoops-optOpenLoops, chosen)

	if s, err = poolStream(st); err != nil {
		return nil, err
	}
	var loops []*ddg.Graph
	for i := 0; len(loops) < optLoops; i++ {
		g, err := poolNext(s, next)
		if err != nil {
			return nil, err
		}
		if chosen[i] {
			loops = append(loops, g)
		}
	}
	return loops, nil
}
