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
// Everything in a compiled (and in the packed tables hanging off it) is
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

	// packs caches the bitvector word packings derived from uses, keyed
	// by effective cycles-per-word (at most 64 entries).
	packMu sync.Mutex
	packs  map[int]*packedTables
}

// packedTables is the k-cycles-per-word packing of a compiled table:
// per-op per-alignment words (alignment a places the table a cycles into
// its base word, so a query at cycle t probes word-aligned against the
// reserved table with no per-candidate shifting). Modulo tables read
// their words relative to the cycle's modulo slot, so they build only
// alignment 0. Read-only after construction.
type packedTables struct {
	packed [][][]packedWord // packed[op][alignment]
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

// packsFor returns the shared k-cycles-per-word packing of c, building
// it on first use. nRes is the description's resource count (constant
// for a given c).
func (c *compiled) packsFor(nRes, k int) *packedTables {
	c.packMu.Lock()
	defer c.packMu.Unlock()
	if pt, ok := c.packs[k]; ok {
		return pt
	}
	aligns := k
	if c.ii > 0 {
		aligns = 1
	}
	pt := &packedTables{
		packed: make([][][]packedWord, len(c.uses)),
	}
	for oi := range c.uses {
		pt.packed[oi] = make([][]packedWord, aligns)
		for a := 0; a < aligns; a++ {
			pt.packed[oi][a] = packUses(c.uses[oi], nRes, k, a)
		}
	}
	if c.packs == nil {
		c.packs = map[int]*packedTables{}
	}
	c.packs[k] = pt
	return pt
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
