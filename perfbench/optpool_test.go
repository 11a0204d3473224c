package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sched"
)

var writeOptPool = flag.Bool("write-optpool", false, "classify the exact-search pool and rewrite optpool.txt")

// optProbeNodes is the node budget of the classification search: a loop
// it does not prove is open, and the timed search at the default budget
// almost always exhausts it.
const optProbeNodes = 8192

// TestOptPool checks optpool.txt against the pool stream: every listed
// loop has the listed size, the pool holds enough open loops to draw
// from, and the corpus has its size. With -write-optpool it
// instead classifies the pool with IMS and an exact search at
// optProbeNodes and rewrites the file, which the next go test checks.
func TestOptPool(t *testing.T) {
	st, err := coldSetup()
	if err != nil {
		t.Fatal(err)
	}
	if *writeOptPool {
		if err := os.WriteFile("optpool.txt", []byte(classifyOptPool(t, st)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	open, err := parseOptPool(optPoolText)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) < 4*optOpenLoops {
		t.Errorf("the pool has %d open loops, want at least %d to draw %d from", len(open), 4*optOpenLoops, optOpenLoops)
	}
	// optCorpus checks every listed loop's size against the pool stream.
	for _, seed := range []int64{1, 1996} {
		loops, err := optCorpus(st, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(loops) != optLoops {
			t.Errorf("seed %d: corpus of %d loops, want %d", seed, len(loops), optLoops)
		}
	}
}

// classifyOptPool runs the classification optpool.txt records.
func classifyOptPool(t *testing.T, st *stack) string {
	s, err := poolStream(st)
	if err != nil {
		t.Fatal(err)
	}
	a := sched.NewArena(st.factory)
	probe := sched.DefaultOptimalConfig()
	probe.MaxNodes = optProbeNodes
	var b strings.Builder
	fmt.Fprintf(&b, "# Open loops of the exact-search pool: loopgen.DefaultStrata, seed %d, the first %d loops.\n", optPoolSeed, optPoolLoops)
	fmt.Fprintf(&b, "# A loop is open when IMS on reduced Cydra 5 stays above MII and sched.Arena.Optimal\n")
	fmt.Fprintf(&b, "# at %d nodes does not prove it. Written by: go test -run TestOptPool -write-optpool\n", optProbeNodes)
	b.WriteString("# index ops\n")
	for i := 0; i < optPoolLoops; i++ {
		g, ok := s.Next()
		if !ok {
			t.Fatalf("pool ended after %d loops", i)
		}
		if r := a.Schedule(g, st.m, sched.DefaultConfig()); r.OK && r.II > r.MII && !a.Optimal(g, st.m, probe).Proven {
			fmt.Fprintf(&b, "%d %d\n", i, len(g.Nodes))
		}
	}
	return b.String()
}
