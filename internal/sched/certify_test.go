package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// replay places the placements in cycle order on a fresh discrete
// reserved table over e (a Modulo Reservation Table of ii columns, or a
// linear table when ii == 0) and reports whether every Check found its
// resources free. It shares no code with forbidden.Matrix, which makes it
// the reference the F certifier is tested against.
func replay(e *resmodel.Expanded, alts, cycles []int, ii int) bool {
	mod := query.NewDiscrete(e, ii)
	order := make([]int, len(alts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return cycles[order[i]] < cycles[order[j]] })
	for _, k := range order {
		if !mod.Check(alts[k], cycles[k]) {
			return false
		}
		mod.Assign(alts[k], cycles[k], k)
	}
	return true
}

// replaySchedule checks a well-formed Result by module replay:
// dependences modulo II, alternatives of the right operation, and a
// contention-free replay on a fresh MRT.
func replaySchedule(g *ddg.Graph, e *resmodel.Expanded, r Result) error {
	if !r.OK {
		return fmt.Errorf("schedule not OK")
	}
	for _, edge := range g.Edges {
		if r.Time[edge.To] < r.Time[edge.From]+edge.Delay-r.II*edge.Dist {
			return fmt.Errorf("dependence %d->%d violated", edge.From, edge.To)
		}
	}
	for v, a := range r.Alt {
		if g.Nodes[v].Op != e.Ops[a].Orig {
			return fmt.Errorf("node %d placed as op %d", v, a)
		}
	}
	if !replay(e, r.Alt, r.Time, r.II) {
		return fmt.Errorf("resource contention")
	}
	return nil
}

// randomLoop builds a small valid dependence graph over m's operations:
// forward edges at distance 0 and backward (or self) edges carried over
// one or two iterations.
func randomLoop(rng *rand.Rand, m *resmodel.Machine) *ddg.Graph {
	n := 1 + rng.Intn(6)
	g := &ddg.Graph{Name: "rand", Nodes: make([]ddg.Node, n)}
	for v := range g.Nodes {
		g.Nodes[v] = ddg.Node{Name: fmt.Sprintf("n%d", v), Op: rng.Intn(len(m.Ops))}
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		from, to := rng.Intn(n), rng.Intn(n)
		dist := 0
		if from >= to {
			dist = 1 + rng.Intn(2)
		}
		g.Edges = append(g.Edges, ddg.Edge{From: from, To: to, Delay: rng.Intn(4), Dist: dist})
	}
	return g
}

// corrupt returns a copy of r with one of three faults: a node shifted in
// time, a node switched to another alternative of its operation, or II
// shrunk (which folds multi-cycle tables onto themselves).
func corrupt(rng *rand.Rand, g *ddg.Graph, e *resmodel.Expanded, r Result) Result {
	c := r
	c.Time = append([]int(nil), r.Time...)
	c.Alt = append([]int(nil), r.Alt...)
	v := rng.Intn(len(g.Nodes))
	switch rng.Intn(3) {
	case 0:
		if alts := e.AltGroup[g.Nodes[v].Op]; len(alts) > 1 {
			c.Alt[v] = alts[(slices.Index(alts, c.Alt[v])+1)%len(alts)]
			break
		}
		fallthrough
	case 1:
		if s := 1 + rng.Intn(c.II+2); c.Time[v] >= s && rng.Intn(2) == 0 {
			c.Time[v] -= s
		} else {
			c.Time[v] += s
		}
	case 2:
		c.II = 1 + rng.Intn(c.II)
	}
	return c
}

// TestCertifyMatchesReplay is the differential test of the F certifier
// against the module replay it replaced, over random machines and loops
// with valid and corrupted schedules. Modulo form: Certify agrees with
// replaySchedule on every result. Linear form: Collision at ii == 0
// agrees with a linear-table replay of three flattened iterations. Both
// forms must see accepts and rejects, and single operations whose tables
// fold onto themselves at a small II must be rejected by both.
func TestCertifyMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var modulo, linear [2]int // [accept, reject]
	selfFolds := 0
	for trial := 0; trial < 400; trial++ {
		m := resmodel.Random(rng, resmodel.DefaultRandomConfig())
		e := m.Expand()
		f := forbidden.Compute(e)
		for x := range e.Ops {
			for ii := 1; ii < f.Span; ii++ {
				g := &ddg.Graph{Name: "self", Nodes: []ddg.Node{{Name: "x", Op: e.Ops[x].Orig}}}
				r := Result{OK: true, II: ii, Time: []int{0}, Alt: []int{x}}
				got, want := Certify(g, e, f, r) == nil, replaySchedule(g, e, r) == nil
				if got != want {
					t.Fatalf("trial %d: op %d at II %d: Certify accepts=%v, replay accepts=%v", trial, x, ii, got, want)
				}
				if !got {
					selfFolds++
				}
			}
		}
		g := randomLoop(rng, m)
		if g.Validate() != nil {
			continue
		}
		r := Schedule(g, m, discreteFactory(e), DefaultConfig())
		if !r.OK {
			continue
		}
		for k := 0; k < 4; k++ {
			c := r
			if k > 0 {
				c = corrupt(rng, g, e, r)
			}
			err := Certify(g, e, f, c)
			if want := replaySchedule(g, e, c); (err == nil) != (want == nil) {
				t.Fatalf("trial %d: Certify says %v, replay says %v\nresult %+v\ngraph %+v", trial, err, want, c, g)
			}
			modulo[boolInt(err != nil)]++

			var alts, cycles []int
			for it := 0; it < 3; it++ {
				for v := range g.Nodes {
					alts = append(alts, c.Alt[v])
					cycles = append(cycles, it*c.II+c.Time[v])
				}
			}
			_, _, _, found := f.Collision(alts, cycles, 0)
			if found == replay(e, alts, cycles, 0) {
				t.Fatalf("trial %d: linear Collision found=%v disagrees with replay\nalts %v cycles %v", trial, found, alts, cycles)
			}
			linear[boolInt(found)]++
		}
	}
	if modulo[0] == 0 || modulo[1] == 0 || linear[0] == 0 || linear[1] == 0 || selfFolds == 0 {
		t.Errorf("outcomes modulo %v linear %v self-folds %d: want accepts and rejects in both forms", modulo, linear, selfFolds)
	}
	t.Logf("modulo accept/reject %v, linear %v, self-fold rejects %d", modulo, linear, selfFolds)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCertifyRejectsMalformedResults: results of the wrong shape come
// back as errors from Certify and ValidateOverlap, never as panics.
func TestCertifyRejectsMalformedResults(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	f := forbidden.Compute(e)
	g := dotProduct(t, m)
	r := Schedule(g, m, discreteFactory(e), DefaultConfig())
	if err := Certify(g, e, f, r); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	edit := func(fn func(c *Result)) Result {
		c := r
		c.Time = append([]int(nil), r.Time...)
		c.Alt = append([]int(nil), r.Alt...)
		fn(&c)
		return c
	}
	cases := map[string]Result{
		"not OK":           edit(func(c *Result) { c.OK = false }),
		"II 0":             edit(func(c *Result) { c.II = 0 }),
		"negative II":      edit(func(c *Result) { c.II = -3 }),
		"short Time":       edit(func(c *Result) { c.Time = c.Time[:1] }),
		"short Alt":        edit(func(c *Result) { c.Alt = c.Alt[:1] }),
		"nil Time and Alt": edit(func(c *Result) { c.Time, c.Alt = nil, nil }),
		"alt below range":  edit(func(c *Result) { c.Alt[2] = -1 }),
		"alt above range":  edit(func(c *Result) { c.Alt[2] = len(e.Ops) }),
		"negative time":    edit(func(c *Result) { c.Time[4] = -1 }),
	}
	for name, c := range cases {
		if err := Certify(g, e, f, c); err == nil {
			t.Errorf("%s: Certify accepted", name)
		}
		if err := ValidateOverlap(g, e, f, c, 4); err == nil {
			t.Errorf("%s: ValidateOverlap accepted", name)
		}
	}
}
