package core

import (
	"fmt"

	"repro/internal/forbidden"
)

// Rule identifies which rule of Algorithm 1 fired for a trace step.
type Rule int

const (
	// Rule1: the elementary pair is fully compatible with the resource, so
	// its usages are added to the resource.
	Rule1 Rule = 1
	// Rule2: the pair is partially compatible; a new resource is created
	// from the pair plus the compatible usages of the resource.
	Rule2 Rule = 2
	// Rule2Discard: the pair is incompatible with every usage of the
	// resource; the would-be new resource is the bare pair and is discarded.
	Rule2Discard Rule = -2
	// Rule3: no resource contains both usages of the pair, so the pair
	// itself becomes a new resource.
	Rule3 Rule = 3
	// Rule4: an operation whose only forbidden latency is the trivial
	// 0-self-contention gets a dedicated single-usage resource.
	Rule4 Rule = 4
)

func (r Rule) String() string {
	switch r {
	case Rule1:
		return "Rule 1 (fully compatible: add pair to resource)"
	case Rule2:
		return "Rule 2 (partially compatible: new resource)"
	case Rule2Discard:
		return "Rule 2 (incompatible: bare pair discarded)"
	case Rule3:
		return "Rule 3 (create resource from pair)"
	case Rule4:
		return "Rule 4 (single-usage resource)"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// TraceStep records one rule application while processing one elementary
// pair, for the Figure 3 rendering.
type TraceStep struct {
	Rule   Rule
	Before string // resource the rule was applied against ("" for Rules 3/4)
	After  string // resulting resource ("" when discarded)
}

// PairTrace records the processing of one elementary pair.
type PairTrace struct {
	Pair  ElemPair
	Steps []TraceStep
	// Set renders the full generating set after this pair was processed.
	Set []string
}

// Trace captures the step-by-step execution of the generating-set
// construction (Figure 3 of the paper). Pass nil to GeneratingSet to skip
// trace collection.
type Trace struct {
	OpName func(int) string
	Pairs  []PairTrace
}

// GeneratingSet executes Algorithm 1 of the paper: it builds a generating
// set of maximal resources for the forbidden-latency matrix m. The result
// forbids only latencies forbidden by m (soundness) and contains every
// maximal resource of the target machine, possibly alongside some
// submaximal ones (Theorem 1); Prune removes the latter.
func GeneratingSet(m *forbidden.Matrix, tr *Trace) []*Resource {
	opName := func(i int) string { return fmt.Sprintf("op%d", i) }
	if tr != nil && tr.OpName != nil {
		opName = tr.OpName
	}

	var G []*Resource

	// subsetOfRes reports whether every usage of a is in b: a linear merge
	// over the sorted usage slices.
	subsetOfRes := func(a, b *Resource) bool {
		if len(a.uses) > len(b.uses) {
			return false
		}
		j := 0
		for _, u := range a.uses {
			for j < len(b.uses) && b.uses[j] < u {
				j++
			}
			if j >= len(b.uses) || b.uses[j] != u {
				return false
			}
			j++
		}
		return true
	}

	// register inserts r into G, maintaining G as an antichain under
	// usage-set inclusion: r is discarded when a live superset already
	// exists (the superset serves as the growth seed in Theorem 1's
	// induction), and live subsets of r are tombstoned (they are dominated
	// — their generated latencies are a subset of r's, so the final
	// pruning would remove them anyway). This keeps the generating set
	// near the true number of maximal resources instead of accumulating
	// combinatorially many submaximal intermediates on dense machines.
	register := func(r *Resource) bool {
		for _, q := range G {
			if q.dead {
				continue
			}
			if subsetOfRes(r, q) {
				return false
			}
			if subsetOfRes(q, r) {
				q.dead = true
			}
		}
		G = append(G, r)
		return true
	}

	// compatible is the scan buffer: the usages of the resource under
	// test that are compatible with both pair usages. newResource copies
	// what it keeps, so the buffer is reused across rule applications.
	var compatible []uint32

	for _, p := range elementaryPairs(m) {
		u0, u1 := p.usages()
		containsBoth := false
		var pt *PairTrace
		if tr != nil {
			pt = &PairTrace{Pair: p}
		}

		snap := len(G) // resources created for this pair are not reprocessed with it
		for i := 0; i < snap; i++ {
			q := G[i]
			if q.dead {
				continue
			}
			// Compatibility scan: is every usage of q compatible with both
			// pair usages, and which ones are?
			compatible = compatible[:0]
			fully := true
			for _, u := range q.uses {
				if compat(m, u, u0) && compat(m, u, u1) {
					compatible = append(compatible, u)
				} else {
					fully = false
				}
			}
			switch {
			case fully:
				// Rule 1: add the pair's usages to q in place, then restore
				// the antichain (q may have converged onto or absorbed
				// another resource).
				before := ""
				if pt != nil {
					before = q.StringWith(opName)
				}
				q.add(u0)
				q.add(u1)
				for j, other := range G {
					if j == i || other.dead {
						continue
					}
					if subsetOfRes(q, other) {
						q.dead = true
						break
					}
					if subsetOfRes(other, q) {
						other.dead = true
					}
				}
				containsBoth = true
				if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule1, before, q.StringWith(opName)})
				}
			default:
				// Rule 2: consider a new resource = pair + compatible usages
				// of q. If that resource is simply the pair itself with no
				// other usages, it is discarded (Rule 3 decides later).
				nr := newResource(append(compatible, u0, u1)...)
				if nr.NumUses() > 2 {
					added := register(nr)
					containsBoth = true // nr (or its live duplicate) contains both
					if pt != nil {
						after := ""
						if added {
							after = nr.StringWith(opName)
						}
						pt.Steps = append(pt.Steps, TraceStep{Rule2, q.StringWith(opName), after})
					}
				} else if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule2Discard, q.StringWith(opName), ""})
				}
			}
		}

		if !containsBoth {
			// Rule 3: the pair itself becomes a new resource.
			nr := newResource(u0, u1)
			register(nr)
			if pt != nil {
				pt.Steps = append(pt.Steps, TraceStep{Rule3, "", nr.StringWith(opName)})
			}
		}

		if pt != nil {
			for _, r := range G {
				if !r.dead {
					pt.Set = append(pt.Set, r.StringWith(opName))
				}
			}
			tr.Pairs = append(tr.Pairs, *pt)
		}
	}

	// Rule 4: operations whose only forbidden latency is the trivial
	// 0-self-contention need a dedicated single-usage resource; every other
	// resource-using operation appears in some elementary pair, which
	// already forbids its 0-self-contention.
	for x := 0; x < m.NumOps; x++ {
		if m.SelfOnly(x) {
			nr := newResource(encodeU(x, 0))
			if register(nr) && tr != nil {
				tr.Pairs = append(tr.Pairs, PairTrace{
					Pair:  ElemPair{X: x, Y: x, F: 0},
					Steps: []TraceStep{{Rule4, "", nr.StringWith(opName)}},
				})
			}
		}
	}

	// Drop tombstoned duplicates.
	out := G[:0]
	for _, r := range G {
		if !r.dead {
			out = append(out, r)
		}
	}
	return out
}
