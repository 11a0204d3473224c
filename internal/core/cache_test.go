package core

import (
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/resmodel"
)

// TestFingerprintStableAndNameBlind checks the cache key's two defining
// properties: re-expanding the same machine hashes identically, and the
// hash depends on scheduling-relevant content only (renaming resources
// and operations does not change it, changing a usage cycle does).
func TestFingerprintStableAndNameBlind(t *testing.T) {
	m := machines.Cydra5()
	if Fingerprint(m.Expand()) != Fingerprint(m.Expand()) {
		t.Fatal("fingerprint differs across fresh expansions of the same machine")
	}

	build := func(name, r0, r1, op string, shift int) *resmodel.Expanded {
		b := resmodel.NewBuilder(name)
		b.Resources(r0, r1)
		b.Op(op, 4).Use(r0, 0).Use(r1, 1+shift)
		return b.Build().Expand()
	}
	base := build("a", "x", "y", "A", 0)
	renamed := build("b", "left", "right", "Zed", 0)
	shifted := build("a", "x", "y", "A", 1)
	if Fingerprint(base) != Fingerprint(renamed) {
		t.Error("fingerprint depends on names; want content-only hashing")
	}
	if Fingerprint(base) == Fingerprint(shifted) {
		t.Error("fingerprint ignores a usage-cycle change")
	}
}

// TestCacheSingleflight pins the memo contract: concurrent first requests
// for one key run the reduction exactly once and all receive the same
// verified *Result; later requests are hits.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	e := machines.Cydra5().Expand()
	obj := Objective{Kind: ResUses}

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Reduce(e, obj, 1)
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct Result; singleflight failed", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	if err := results[0].Verify(); err != nil {
		t.Errorf("cached result fails verification: %v", err)
	}

	// A different objective is a different key — a miss, not a collision.
	if c.Reduce(e, Objective{Kind: KCycleWord, K: 3}, 1) == results[0] {
		t.Error("distinct objectives share a cache entry")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries after second objective, want 2", c.Len())
	}
}
