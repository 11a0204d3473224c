package query

import (
	"sync"

	"repro/internal/resmodel"
)

// compiled holds the per-operation reservation tables preprocessed for a
// module instance. For a Modulo Reservation Table (ii > 0) the usage
// cycles are folded modulo II; if two usages of one operation fold onto
// the same (resource, cycle) cell, the operation needs the same resource
// in the same steady-state cycle for two different iterations, so it is
// unschedulable at this II (selfConf).
//
// Everything in a compiled (and in the charge tables hanging off it) is
// immutable once built, so one instance is shared by every module
// constructed for the same (description, II) — see compileFor.
type compiled struct {
	ii       int
	uses     [][]resmodel.Usage
	selfConf []bool
	spans    []int
	// maxUse[op] is the largest usage cycle of op's (folded) table — the
	// reach of a candidate's resource window past its issue cycle. The
	// verdict scan sizes its occupancy-summary probe with it.
	maxUse []int

	// charges caches the bitvector charge tables derived from uses,
	// keyed by effective cycles-per-word (at most 64 entries).
	chargeMu sync.Mutex
	charges  map[int]*chargeTable
}

// chargeTable is the k-cycles-per-word packing of a compiled table, kept
// only to count the bitvector module's work: Section 7 costs one
// AND-and-test per non-empty packed word, and Table 6 counts exactly that.
// byCycle[op] is op's usages sorted by cycle. words[op][a] lists op's
// non-empty words in order for a query a cycles into its base word, the
// table placed a cycles into that word: each entry is the word's offset
// from the base word and the range of byCycle[op] that falls in it. Modulo tables read their words relative to the cycle's
// modulo slot, so they build only alignment 0. The flags themselves live
// in the module's rows. Read-only after construction.
type chargeTable struct {
	byCycle [][]resmodel.Usage
	words   [][][]chargeWord
}

// chargeWord is one non-empty packed word: its offset from the query's
// base word, and its usages byCycle[op][lo:hi].
type chargeWord struct {
	word, lo, hi int32
}

// compiledCacheMax bounds the memoized compilations; schedulers revisit
// a handful of (description, II) pairs thousands of times across a loop
// corpus, so the cache is tiny in practice. When it fills (a long-lived
// process cycling through many descriptions), it is dropped wholesale —
// recompiling is cheap, unbounded retention of dead descriptions is not.
const compiledCacheMax = 512

type compiledKey struct {
	e  *resmodel.Expanded
	ii int
}

var (
	compiledMu    sync.Mutex
	compiledCache = map[compiledKey]*compiled{}
)

// compileFor returns the shared compiled tables for (e, ii), building
// them on first use. Identity of the description pointer is the cache
// key: resmodel.Expanded values are immutable once built, so a pointer
// revisit means the same tables. Concurrent first builds may race to
// compile; either result is valid and the map keeps one winner.
func compileFor(e *resmodel.Expanded, ii int) *compiled {
	key := compiledKey{e, ii}
	compiledMu.Lock()
	if c, ok := compiledCache[key]; ok {
		compiledMu.Unlock()
		return c
	}
	compiledMu.Unlock()
	c := compile(e, ii)
	compiledMu.Lock()
	if prev, ok := compiledCache[key]; ok {
		compiledMu.Unlock()
		return prev
	}
	if len(compiledCache) >= compiledCacheMax {
		compiledCache = map[compiledKey]*compiled{}
	}
	compiledCache[key] = c
	compiledMu.Unlock()
	return c
}

// chargesFor returns the shared k-cycles-per-word charge table of c,
// building it on first use in one pass over each op's cycle-sorted
// usages: consecutive usages share a word until the word offset changes.
func (c *compiled) chargesFor(k int) *chargeTable {
	c.chargeMu.Lock()
	defer c.chargeMu.Unlock()
	if ct, ok := c.charges[k]; ok {
		return ct
	}
	aligns := k
	if c.ii > 0 {
		aligns = 1
	}
	n := 0
	for _, uses := range c.uses {
		n += len(uses)
	}
	sorted := make([]resmodel.Usage, 0, n)
	words := make([]chargeWord, 0, n*aligns)
	perOp := make([][]chargeWord, len(c.uses)*aligns)
	ct := &chargeTable{
		byCycle: make([][]resmodel.Usage, len(c.uses)),
		words:   make([][][]chargeWord, len(c.uses)),
	}
	for oi, uses := range c.uses {
		// Insertion sort by cycle: reservation tables hold a few dozen
		// usages at most.
		from := len(sorted)
		for _, u := range uses {
			sorted = append(sorted, u)
			for j := len(sorted) - 1; j > from && sorted[j-1].Cycle > u.Cycle; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		byCycle := sorted[from:len(sorted):len(sorted)]
		ct.byCycle[oi] = byCycle
		ct.words[oi] = perOp[oi*aligns : (oi+1)*aligns : (oi+1)*aligns]
		for a := 0; a < aligns; a++ {
			first := len(words)
			for i, u := range byCycle {
				w := int32((u.Cycle + a) / k)
				if last := len(words) - 1; last >= first && words[last].word == w {
					words[last].hi = int32(i + 1)
				} else {
					words = append(words, chargeWord{word: w, lo: int32(i), hi: int32(i + 1)})
				}
			}
			ct.words[oi][a] = words[first:len(words):len(words)]
		}
	}
	if c.charges == nil {
		c.charges = map[int]*chargeTable{}
	}
	c.charges[k] = ct
	return ct
}

func compile(e *resmodel.Expanded, ii int) *compiled {
	c := &compiled{
		ii:       ii,
		uses:     make([][]resmodel.Usage, len(e.Ops)),
		selfConf: make([]bool, len(e.Ops)),
		spans:    make([]int, len(e.Ops)),
		maxUse:   make([]int, len(e.Ops)),
	}
	for oi, o := range e.Ops {
		if ii == 0 {
			c.uses[oi] = o.Table.Uses
			c.spans[oi] = o.Table.Span()
			for _, u := range o.Table.Uses {
				if u.Cycle > c.maxUse[oi] {
					c.maxUse[oi] = u.Cycle
				}
			}
			continue
		}
		seen := map[resmodel.Usage]bool{}
		folded := make([]resmodel.Usage, 0, len(o.Table.Uses))
		for _, u := range o.Table.Uses {
			fu := resmodel.Usage{Resource: u.Resource, Cycle: u.Cycle % ii}
			if seen[fu] {
				c.selfConf[oi] = true
			}
			seen[fu] = true
			folded = append(folded, fu)
		}
		if c.selfConf[oi] {
			// Unschedulable at this II; keep the folded list only for
			// diagnostics, it is never reserved.
			c.uses[oi] = nil
		} else {
			c.uses[oi] = folded
			for _, u := range folded {
				if u.Cycle > c.maxUse[oi] {
					c.maxUse[oi] = u.Cycle
				}
			}
		}
		c.spans[oi] = ii
	}
	return c
}

// maxSpan returns the largest span over all ops.
func (c *compiled) maxSpan() int {
	max := 0
	for _, s := range c.spans {
		if s > max {
			max = s
		}
	}
	return max
}
