package main

import (
	"fmt"
	"slices"

	"repro/internal/ddg"
	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// oracle is the independent ground truth the benchmark checks schedules
// against: the original Cydra 5 description (built from Go, not parsed
// from the MDL text the stack under test reads) and its forbidden-latency
// matrix. It shares no code with the query modules.
type oracle struct {
	e *resmodel.Expanded
	f *forbidden.Matrix
}

// newOracle builds the oracle and checks that the MDL text every stack
// under test parses lists the same expanded operations in the same order,
// so that expanded-op indices mean the same thing on both sides.
func newOracle() (*oracle, error) {
	e := machines.Cydra5().Expand()
	m, err := mdl.Parse(cydra5MDL)
	if err != nil {
		return nil, err
	}
	parsed := m.Expand()
	if len(parsed.Ops) != len(e.Ops) {
		return nil, fmt.Errorf("parsed Cydra 5 has %d expanded ops, oracle %d", len(parsed.Ops), len(e.Ops))
	}
	for i := range e.Ops {
		if parsed.Ops[i].Name != e.Ops[i].Name {
			return nil, fmt.Errorf("parsed Cydra 5 expanded op %d is %s, oracle %s", i, parsed.Ops[i].Name, e.Ops[i].Name)
		}
	}
	return &oracle{e: e, f: forbidden.Compute(e)}, nil
}

// certify checks a modulo schedule of g at ii against the original
// machine's semantics alone: every node uses an alternative of its own
// operation, every dependence holds (t_to >= t_from + delay - ii*dist),
// and no two placed operations collide in any iteration, i.e. for every
// pair (i, j) no latency d ≡ t_j - t_i (mod ii) lies in F[alt_j][alt_i]
// (for i == j, no nonzero multiple of ii lies in F[alt_i][alt_i]).
func (o *oracle) certify(g *ddg.Graph, ii int, times, alts []int) error {
	n := len(g.Nodes)
	if ii <= 0 {
		return fmt.Errorf("%s: II %d", g.Name, ii)
	}
	if len(times) != n || len(alts) != n {
		return fmt.Errorf("%s: %d times and %d alts for %d nodes", g.Name, len(times), len(alts), n)
	}
	for v, node := range g.Nodes {
		if !slices.Contains(o.e.AltGroup[node.Op], alts[v]) {
			return fmt.Errorf("%s: node %d placed as op %d, not an alternative of op %d", g.Name, v, alts[v], node.Op)
		}
		if times[v] < 0 {
			return fmt.Errorf("%s: node %d at cycle %d", g.Name, v, times[v])
		}
	}
	for _, ed := range g.Edges {
		if times[ed.To] < times[ed.From]+ed.Delay-ii*ed.Dist {
			return fmt.Errorf("%s: dependence %d->%d (delay %d, dist %d) violated at II %d: %d -> %d",
				g.Name, ed.From, ed.To, ed.Delay, ed.Dist, ii, times[ed.From], times[ed.To])
		}
	}
	span := o.f.Span
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			// Smallest d > -span congruent to t_j - t_i modulo ii.
			d := times[j] - times[i]
			d = ((d+span-1)%ii+ii)%ii - (span - 1)
			for ; d < span; d += ii {
				if i == j && d == 0 {
					continue
				}
				if o.f.Forbidden(alts[j], alts[i], d) {
					return fmt.Errorf("%s: nodes %d (op %d, cycle %d) and %d (op %d, cycle %d) collide at latency %d mod II %d",
						g.Name, i, alts[i], times[i], j, alts[j], times[j], d, ii)
				}
			}
		}
	}
	return nil
}

// sameAsOriginal schedules g on the original description's discrete
// module and reports whether the schedule equals r, the one the reduced
// stack produced: the paper's invariant that the reduced description
// answers every contention query as the original does.
func (o *oracle) sameAsOriginal(g *ddg.Graph, m *resmodel.Machine, r *sched.Result) error {
	ref := sched.Schedule(g, m, func(ii int) query.Module { return query.NewDiscrete(o.e, ii) }, sched.DefaultConfig())
	if ref.OK != r.OK || ref.II != r.II || !slices.Equal(ref.Time, r.Time) || !slices.Equal(ref.Alt, r.Alt) {
		return fmt.Errorf("%s: reduced stack scheduled II %d, original discrete description II %d (or a different placement)", g.Name, r.II, ref.II)
	}
	return nil
}
