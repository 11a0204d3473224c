package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/resmodel"
)

// distinctRandomMachines generates n random machines with pairwise
// distinct content fingerprints (Random can occasionally repeat small
// machines; the LRU accounting below needs a known working-set size).
func distinctRandomMachines(t *testing.T, n int) []*resmodel.Expanded {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	out := make([]*resmodel.Expanded, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			t.Fatalf("could not generate %d distinct machines", n)
		}
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		fp := fingerprint(e)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, e)
	}
	return out
}

// reductionShape is the content summary the race test re-verifies after
// evicted entries are recomputed: identical input hash must yield an
// identical reduced description.
type reductionShape struct {
	reducedFP               uint64
	numResources, numUsages int
}

func shapeOf(r *Result) reductionShape {
	return reductionShape{
		reducedFP:    fingerprint(r.Reduced),
		numResources: r.NumResources(),
		numUsages:    r.NumUsages(),
	}
}

// TestCacheLRURaceAndReconcile hammers a small-capacity cache from many
// goroutines with a working set larger than the capacity, under -race in
// tier-1. It pins the bounded-cache contract:
//
//   - hits + misses == total Reduce calls (every call is exactly one),
//   - misses == evictions + resident entries (every miss inserts one
//     entry; entries only leave via eviction),
//   - evictions > 0 (the working set exceeds capacity),
//   - every returned Result — including recomputations of evicted
//     entries — has content identical to the serial reference
//     (content-hash re-verify of the reduced description).
func TestCacheLRURaceAndReconcile(t *testing.T) {
	const (
		capacity = 4
		distinct = 12
		callers  = 8
		rounds   = 150
	)
	es := distinctRandomMachines(t, distinct)
	obj := Objective{Kind: ResUses}

	// Serial reference shapes, computed outside any cache.
	want := make([]reductionShape, distinct)
	for i, e := range es {
		want[i] = shapeOf(Reduce(e, obj))
	}

	c := NewCacheLRU(capacity)
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(distinct)
				res := c.Reduce(es[i], obj, 1)
				if got := shapeOf(res); got != want[i] {
					errs <- "cached/recomputed reduction differs from serial reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	hits, misses := c.Stats()
	total := int64(callers * rounds)
	if hits+misses != total {
		t.Errorf("hits (%d) + misses (%d) = %d, want total calls %d", hits, misses, hits+misses, total)
	}
	if ev := c.Evictions(); ev == 0 {
		t.Error("working set of 12 over capacity 4 produced no evictions")
	} else if misses != ev+int64(c.Len()) {
		t.Errorf("misses (%d) != evictions (%d) + resident (%d)", misses, ev, c.Len())
	}
	if c.Len() > capacity {
		t.Errorf("resident entries %d exceed capacity %d", c.Len(), capacity)
	}
}

// TestCacheCapacityBound is the regression test for the formerly
// unbounded process-wide cache: resident entries never exceed the
// configured capacity and LRU order decides who is evicted.
func TestCacheCapacityBound(t *testing.T) {
	const capacity = 3
	es := distinctRandomMachines(t, 8)
	obj := Objective{Kind: ResUses}

	c := NewCacheLRU(capacity)
	for i, e := range es {
		c.Reduce(e, obj, 1)
		if c.Len() > capacity {
			t.Fatalf("after %d inserts: %d resident entries exceed capacity %d", i+1, c.Len(), capacity)
		}
	}
	if ev := c.Evictions(); ev != int64(len(es)-capacity) {
		t.Errorf("evictions = %d, want %d", ev, len(es)-capacity)
	}

	// The three most recent (5, 6, 7) are resident: touching 5 then
	// inserting an evicted machine must evict 6 (the LRU), not 5.
	if _, hit := c.ReduceTracked(es[5], obj); !hit {
		t.Error("most-recent entry was evicted; want resident hit")
	}
	if _, hit := c.ReduceTracked(es[0], obj); hit {
		t.Error("long-evicted entry reported as hit")
	}
	if _, hit := c.ReduceTracked(es[5], obj); !hit {
		t.Error("recently-touched entry evicted before LRU sibling")
	}
	if _, hit := c.ReduceTracked(es[6], obj); hit {
		t.Error("LRU entry survived eviction ahead of a recently-touched one")
	}
}

// TestDefaultCacheIsBounded pins the satellite fix itself: the
// process-wide cache used by CachedReduce is no longer unbounded.
func TestDefaultCacheIsBounded(t *testing.T) {
	if got := DefaultCache.Capacity(); got != DefaultCacheCapacity {
		t.Fatalf("DefaultCache capacity = %d, want %d", got, DefaultCacheCapacity)
	}
	if DefaultCacheCapacity <= 0 {
		t.Fatal("DefaultCacheCapacity must be a positive bound")
	}
}

// TestCacheEvictedRecomputeSharesNothing: a hit after eviction returns a
// fresh *Result (not the evicted pointer), yet identical content — the
// recompute path of a bounded serving process.
func TestCacheEvictedRecomputeSharesNothing(t *testing.T) {
	c := NewCacheLRU(1)
	e1 := machines.Cydra5Subset().Expand()
	e2 := machines.MIPS().Expand()
	obj := Objective{Kind: ResUses}

	first := c.Reduce(e1, obj, 1)
	c.Reduce(e2, obj, 1) // evicts e1
	second, hit := c.ReduceTracked(e1, obj)
	if hit {
		t.Fatal("evicted entry served as hit")
	}
	if first == second {
		t.Fatal("recompute returned the evicted Result pointer")
	}
	if shapeOf(first) != shapeOf(second) {
		t.Fatal("recomputed reduction differs from the evicted one")
	}
	if !first.Matrix.Equal(second.Matrix) {
		t.Fatal("recomputed forbidden matrix differs from the evicted one")
	}
}
