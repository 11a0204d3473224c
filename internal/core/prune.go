package core

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/forbidden"
)

// Prune removes from the generating set every resource whose generated
// forbidden-latency set is covered by (is a subset of) that of a remaining
// resource. This eliminates submaximal resources as well as redundant
// maximal resources such as mirror images (first step of the selection
// heuristic, Section 5).
//
// Triple sets are dense bitsets over the matrix's forbidden-triple
// universe: dedup buckets by a word hash and confirms with an exact
// equality check, and dominance is a word-wise subset test. Pairs of an
// unsound resource generating latencies the machine allows fall outside
// the universe and are ignored, as in SelectCover.
func Prune(m *forbidden.Matrix, G []*Resource) []*Resource {
	ti := newTripleIndex(m)

	type entry struct {
		r   *Resource
		set *bitset.Dense
	}
	entries := make([]entry, 0, len(G))
	for _, r := range G {
		if r.NumUses() == 0 {
			continue
		}
		set := bitset.NewDense(ti.Len())
		us := r.Uses()
		for _, a := range us {
			for _, b := range us {
				f := b.Cycle - a.Cycle
				if f < 0 {
					continue
				}
				if t := ti.index(a.Op, b.Op, f); t >= 0 {
					set.Add(int(t))
				}
			}
		}
		entries = append(entries, entry{r, set})
	}

	// Identical triple sets: keep a single representative with the fewest
	// usages (cheaper for the selection step), ties preferring the earlier
	// entry. Buckets by hash; equality confirmed exactly, so collisions
	// only cost a comparison.
	byHash := map[uint64][]int{} // hash -> current representative entry indices
	keep := make([]bool, len(entries))
	for i := range keep {
		keep[i] = true
	}
	for i, e := range entries {
		h := e.set.Hash()
		bucket := byHash[h]
		dup := false
		for bi, j := range bucket {
			if !e.set.Equal(entries[j].set) {
				continue
			}
			dup = true
			if e.r.NumUses() < entries[j].r.NumUses() {
				keep[j] = false
				bucket[bi] = i
			} else {
				keep[i] = false
			}
			break
		}
		if !dup {
			byHash[h] = append(bucket, i)
		}
	}
	dedup := entries[:0]
	for i, e := range entries {
		if keep[i] {
			dedup = append(dedup, e)
		}
	}
	entries = dedup

	// Sort by triple-set size descending so any strict superset precedes
	// its subsets; then drop every entry dominated by a kept one.
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].set.Len() > entries[j].set.Len()
	})
	var kept []entry
	for _, e := range entries {
		dominated := false
		for _, k := range kept {
			if k.set.Len() > e.set.Len() && e.set.SubsetOf(k.set) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, e)
		}
	}
	out := make([]*Resource, len(kept))
	for i, e := range kept {
		out[i] = e.r
	}
	return out
}
