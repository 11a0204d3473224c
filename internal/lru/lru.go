// Package lru is the repository's one capacity-bounded
// least-recently-used table. It backs the reduction cache
// (core.Cache) and mdserve's machine registry and session table, so
// none of them can grow without limit under unique-key spam, and the
// three share one eviction rule: exact least-recently-used across the
// whole table, one mutex, one map lookup and one list move per access.
package lru

import (
	"container/list"
	"sync"
)

// Table is a capacity-bounded LRU table behind one mutex, safe for
// concurrent use.
type Table[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int // <= 0: unbounded
	entries  map[K]*list.Element
	order    *list.List // front = most recently used; values are *entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a table holding at most capacity entries (capacity <= 0
// means unbounded).
func New[K comparable, V any](capacity int) *Table[K, V] {
	return &Table[K, V]{capacity: capacity, entries: map[K]*list.Element{}, order: list.New()}
}

// Cap returns the capacity the table was made with (<= 0: unbounded).
func (t *Table[K, V]) Cap() int { return t.capacity }

// Get returns the value under key, marking it most recently used.
func (t *Table[K, V]) Get(key K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// GetOrPut returns the value under key, marking it most recently used;
// if key is absent it inserts mk() in the same critical section, so
// concurrent callers for one key all receive the one inserted value.
// loaded reports whether the value was already resident; evicted counts
// the entries dropped to respect the capacity.
func (t *Table[K, V]) GetOrPut(key K, mk func() V) (v V, loaded bool, evicted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el := t.entries[key]; el != nil {
		t.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true, 0
	}
	v = mk()
	t.entries[key] = t.order.PushFront(&entry[K, V]{key: key, val: v})
	return v, false, t.evictLocked()
}

// Put inserts (or replaces) key's value at the most-recently-used
// position and returns how many entries were evicted to respect the
// capacity. A replacement never evicts.
func (t *Table[K, V]) Put(key K, val V) (evicted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el := t.entries[key]; el != nil {
		el.Value.(*entry[K, V]).val = val
		t.order.MoveToFront(el)
		return 0
	}
	t.entries[key] = t.order.PushFront(&entry[K, V]{key: key, val: val})
	return t.evictLocked()
}

// evictLocked drops least-recently-used entries until the table
// respects its capacity. Callers hold t.mu.
func (t *Table[K, V]) evictLocked() int {
	n := 0
	for t.capacity > 0 && t.order.Len() > t.capacity {
		delete(t.entries, t.order.Remove(t.order.Back()).(*entry[K, V]).key)
		n++
	}
	return n
}

// Remove deletes key, returning its value if it was resident.
func (t *Table[K, V]) Remove(key K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	delete(t.entries, key)
	return t.order.Remove(el).(*entry[K, V]).val, true
}

// RemoveIf removes the entries pred selects and returns how many it
// removed. pred runs under the lock, so it must be cheap.
func (t *Table[K, V]) RemoveIf(pred func(V) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for el := t.order.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*entry[K, V]); pred(ent.val) {
			t.order.Remove(el)
			delete(t.entries, ent.key)
			n++
		}
		el = next
	}
	return n
}

// Len returns the resident entry count.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Values snapshots every resident value, most recently used first.
// LRU positions are not disturbed.
func (t *Table[K, V]) Values() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]V, 0, len(t.entries))
	for el := t.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}
