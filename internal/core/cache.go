package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/resmodel"
)

// fingerprint returns the FNV-1a content hash of the canonicalized
// expanded machine description: operation count, resource count, and for
// every operation its latency, original-operation index, alternative
// index, and reservation-table usages sorted by (resource, cycle), plus
// the alternative-group structure. Names are deliberately excluded — two
// descriptions that generate the same forbidden-latency matrix inputs
// hash equally regardless of labeling — so the hash keys reductions by
// scheduling-relevant content only.
func fingerprint(e *resmodel.Expanded) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wi(len(e.Resources))
	wi(len(e.Ops))
	us := make([]resmodel.Usage, 0, 16)
	for _, o := range e.Ops {
		wi(o.Latency)
		wi(o.Orig)
		wi(o.Alt)
		us = append(us[:0], o.Table.Uses...)
		sort.Slice(us, func(i, j int) bool {
			if us[i].Resource != us[j].Resource {
				return us[i].Resource < us[j].Resource
			}
			return us[i].Cycle < us[j].Cycle
		})
		wi(len(us))
		for _, u := range us {
			wi(u.Resource)
			wi(u.Cycle)
		}
	}
	wi(len(e.AltGroup))
	for _, g := range e.AltGroup {
		wi(len(g))
		for _, op := range g {
			wi(op)
		}
	}
	return h.Sum64()
}

// cacheKey identifies one reduction: the content hash of the input
// description plus the full objective (kind and k-cycle-word parameter).
// The word size of the eventual bitvector module is not part of the key
// because it does not influence the reduction, only how the reduced
// description is packed.
type cacheKey struct {
	fp   uint64
	kind ObjectiveKind
	k    int
}

// cacheEntry memoizes one reduction. The sync.Once serializes concurrent
// first requests for the same key (classic singleflight), so a machine is
// reduced at most once per entry lifetime even when tables race for it.
type cacheEntry struct {
	once sync.Once
	res  *Result
}

func newCacheEntry() *cacheEntry { return new(cacheEntry) }

// Cache is a content-keyed, capacity-bounded LRU memo of completed
// reductions. Reducing a machine is orders of magnitude more expensive
// than hashing it, and cmd/paper re-reduces the same machines for every
// table and figure; the cache makes each (machine, objective) reduction
// a once-per-residency cost. Because Result.Verify is itself memoized, a
// cache hit also skips verification re-computation — the verification
// outcome is part of the cached entry.
//
// When a capacity is set, inserting a new entry beyond it evicts the
// least-recently-used entry; a later request for an evicted key is a
// miss that recomputes the reduction (content hashing guarantees the
// recomputed Result is equivalent). Eviction never invalidates a Result
// already handed to a caller — holders keep their pointer; only the
// index forgets it. Long-running processes (cmd/mdserve) therefore hold
// at most capacity resident reductions instead of growing without bound.
//
// Cached Results are shared: callers must treat them (including Reduced,
// ReducedClass and ClassTables) as read-only, which every consumer in
// this repository already does.
//
// The index is the shared LRU table (internal/lru), whose atomic
// get-or-insert makes a hit one lock, one map lookup and one list move.
type Cache struct {
	entries   *lru.Table[cacheKey, *cacheEntry]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// DefaultCacheCapacity bounds the process-wide DefaultCache. It is far
// above the working set of any cmd/paper run (a handful of machines ×
// objectives) while capping resident reductions in serving processes
// that see unbounded distinct machines.
const DefaultCacheCapacity = 256

// NewCache returns an empty, unbounded reduction cache.
func NewCache() *Cache { return NewCacheLRU(0) }

// NewCacheLRU returns an empty reduction cache holding at most capacity
// entries (capacity <= 0 means unbounded).
func NewCacheLRU(capacity int) *Cache {
	return &Cache{entries: lru.New[cacheKey, *cacheEntry](capacity)}
}

// DefaultCache is the process-wide reduction cache used by CachedReduce,
// bounded to DefaultCacheCapacity resident reductions.
var DefaultCache = NewCacheLRU(DefaultCacheCapacity)

// Reduce returns the cached reduction of e under obj, computing it with
// the serial pipeline (core.Reduce) on first request. Concurrent requests
// for the same key block on the single in-flight computation instead of
// duplicating it. The third argument is ignored; it is kept only so that
// existing callers still compile, and goes at the next benchmark change.
func (c *Cache) Reduce(e *resmodel.Expanded, obj Objective, _ int) *Result {
	res, _ := c.ReduceTracked(e, obj)
	return res
}

// ReduceTracked is Reduce, additionally reporting whether the result was
// served from cache (true) or computed by this call's singleflight
// (false). Exactly one request per entry lifetime reports a miss.
func (c *Cache) ReduceTracked(e *resmodel.Expanded, obj Objective) (*Result, bool) {
	// Evicting an entry whose reduction is still in flight is safe: its
	// waiters hold the entry pointer and complete normally; the index
	// simply forgets the key.
	ent, _, evicted := c.entries.GetOrPut(cacheKey{fp: fingerprint(e), kind: obj.Kind, k: obj.K}, newCacheEntry)
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		obs.Add("core.cache.evictions", int64(evicted))
	}
	hit := true
	ent.once.Do(func() {
		hit = false
		ent.res = Reduce(e, obj)
	})
	// The ad-hoc atomics back Stats(); the same outcome is promoted onto
	// the default registry so -metrics profiles include cache behaviour.
	if hit {
		c.hits.Add(1)
		obs.Inc("core.cache.hits")
	} else {
		c.misses.Add(1)
		obs.Inc("core.cache.misses")
	}
	return ent.res, hit
}

// Capacity returns the configured capacity (<= 0 means unbounded).
func (c *Cache) Capacity() int { return c.entries.Cap() }

// Stats returns the hit and miss counts so far. Every Reduce call is
// exactly one hit or one miss, so hits+misses equals total calls; each
// miss corresponds to one entry insertion, so misses == Evictions()+Len()
// at any quiescent point.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the number of entries dropped by the LRU bound.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len returns the number of resident cached reductions.
func (c *Cache) Len() int { return c.entries.Len() }

// CachedReduce reduces through the process-wide DefaultCache.
func CachedReduce(e *resmodel.Expanded, obj Objective) *Result {
	return DefaultCache.Reduce(e, obj, 1)
}
