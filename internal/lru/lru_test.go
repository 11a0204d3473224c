package lru

import (
	"reflect"
	"sync"
	"testing"
)

// TestTableEvictsLeastRecentlyUsed pins the eviction rule: a Get or a
// GetOrPut hit refreshes an entry, the least recently used one goes
// first, a replacing Put never evicts, and capacity <= 0 is unbounded.
func TestTableEvictsLeastRecentlyUsed(t *testing.T) {
	tb := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if ev := tb.Put(k, i); ev != 0 {
			t.Fatalf("Put(%q) evicted %d below capacity", k, ev)
		}
	}
	tb.Get("a")
	if v, loaded, ev := tb.GetOrPut("b", func() int { return -1 }); !loaded || v != 1 || ev != 0 {
		t.Fatalf("GetOrPut hit = %d, %v, %d; want 1, true, 0", v, loaded, ev)
	}
	if ev := tb.Put("d", 3); ev != 1 {
		t.Fatalf("Put beyond capacity evicted %d, want 1", ev)
	}
	if _, ok := tb.Get("c"); ok {
		t.Fatal("c, the least recently used, survived")
	}
	if ev := tb.Put("a", 10); ev != 0 {
		t.Fatalf("replacing Put evicted %d", ev)
	}
	if got, want := tb.Values(), []int{10, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Values() = %v, want %v (most recent first)", got, want)
	}
	if v, loaded, ev := tb.GetOrPut("e", func() int { return 4 }); loaded || v != 4 || ev != 1 {
		t.Fatalf("GetOrPut miss = %d, %v, %d; want 4, false, 1", v, loaded, ev)
	}
	if tb.Len() != 3 || tb.Cap() != 3 {
		t.Fatalf("Len()=%d Cap()=%d, want 3/3", tb.Len(), tb.Cap())
	}

	open := New[int, int](0)
	for i := 0; i < 100; i++ {
		if ev := open.Put(i, i); ev != 0 {
			t.Fatal("unbounded table evicted")
		}
	}
	if open.Len() != 100 {
		t.Fatalf("unbounded table holds %d, want 100", open.Len())
	}
}

func TestTableRemove(t *testing.T) {
	tb := New[int, int](0)
	for i := 0; i < 10; i++ {
		tb.Put(i, i)
	}
	if v, ok := tb.Remove(4); !ok || v != 4 {
		t.Fatalf("Remove(4) = %d, %v", v, ok)
	}
	if _, ok := tb.Remove(4); ok {
		t.Fatal("second Remove(4) found it")
	}
	if n := tb.RemoveIf(func(v int) bool { return v%2 == 1 }); n != 5 {
		t.Fatalf("RemoveIf removed %d, want 5", n)
	}
	if got, want := tb.Values(), []int{8, 6, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
}

// TestGetOrPutInsertsOnce races many callers on a few keys under -race:
// each key's constructor runs at most once per residency, and every
// caller of a key sees the same value.
func TestGetOrPutInsertsOnce(t *testing.T) {
	tb := New[int, *int](0)
	var mu sync.Mutex
	made := map[int]int{}
	var wg sync.WaitGroup
	seen := make([][4]*int, 16)
	for w := range seen {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				v, _, _ := tb.GetOrPut(k, func() *int {
					mu.Lock()
					made[k]++
					mu.Unlock()
					return new(int)
				})
				seen[w][k] = v
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < 4; k++ {
		if made[k] != 1 {
			t.Errorf("key %d constructed %d times", k, made[k])
		}
		for w := range seen {
			if seen[w][k] != seen[0][k] {
				t.Errorf("caller %d saw a different value for key %d", w, k)
			}
		}
	}
}
