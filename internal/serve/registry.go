package serve

import (
	"container/list"
	"sync"
)

// lruTable is a capacity-bounded string-keyed LRU table behind one
// mutex. It backs both of the server's long-lived tables — the machine
// registry and the scheduling-session table — so neither can grow
// without limit under unique-key spam (the same bug class the reduction
// cache's LRU bound removed). Eviction is exact least-recently-used
// across the whole table; the lock is held for one map lookup and list
// move per access.
type lruTable[V any] struct {
	mu       sync.Mutex
	capacity int // <= 0: unbounded
	entries  map[string]*list.Element
	order    *list.List // front = most recently used; values are *lruEntry[V]
}

// lruEntry is one key/value pair of an lruTable (also the snapshot
// element type returned by items, removeIf and put's eviction list).
type lruEntry[V any] struct {
	key string
	val V
}

// newLRUTable returns a table holding at most capacity entries
// (capacity <= 0 means unbounded).
func newLRUTable[V any](capacity int) *lruTable[V] {
	return &lruTable[V]{capacity: capacity, entries: map[string]*list.Element{}, order: list.New()}
}

// get returns the value under key, marking it most recently used.
func (t *lruTable[V]) get(key string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts (or replaces) key's value at the most-recently-used
// position and returns the entries evicted to respect the capacity. A
// replacement never evicts.
func (t *lruTable[V]) put(key string, val V) []lruEntry[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el := t.entries[key]; el != nil {
		el.Value.(*lruEntry[V]).val = val
		t.order.MoveToFront(el)
		return nil
	}
	t.entries[key] = t.order.PushFront(&lruEntry[V]{key: key, val: val})
	var evicted []lruEntry[V]
	for t.capacity > 0 && t.order.Len() > t.capacity {
		ent := t.order.Remove(t.order.Back()).(*lruEntry[V])
		delete(t.entries, ent.key)
		evicted = append(evicted, *ent)
	}
	return evicted
}

// remove deletes key, returning its value if it was resident.
func (t *lruTable[V]) remove(key string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	ent := t.order.Remove(el).(*lruEntry[V])
	delete(t.entries, key)
	return ent.val, true
}

// len returns the resident entry count.
func (t *lruTable[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// items snapshots every resident entry, most recently used first
// (callers sort). LRU positions are not disturbed.
func (t *lruTable[V]) items() []lruEntry[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]lruEntry[V], 0, len(t.entries))
	for el := t.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*lruEntry[V]))
	}
	return out
}

// removeIf removes (and returns) the entries pred selects. Used for TTL
// expiry of idle sessions; pred must be cheap, it runs under the lock.
func (t *lruTable[V]) removeIf(pred func(key string, val V) bool) []lruEntry[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []lruEntry[V]
	var next *list.Element
	for el := t.order.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*lruEntry[V])
		if pred(ent.key, ent.val) {
			t.order.Remove(el)
			delete(t.entries, ent.key)
			out = append(out, *ent)
		}
	}
	return out
}
