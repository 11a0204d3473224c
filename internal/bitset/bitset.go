// Package bitset provides the dense bit sets of the machine-description
// reduction pipeline: Signed holds forbidden-latency sets, Dense the
// per-resource forbidden-triple sets of cover pruning, and Set is the
// growable set Signed is built on.
//
// The zero value of Set is an empty set ready to use.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over non-negative integers. It grows on demand.
// The zero value is an empty set.
type Set struct {
	words []uint64
}

// New returns a set with capacity preallocated for values in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given values.
func FromSlice(vals []int) *Set {
	s := &Set{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts v into the set. v must be non-negative.
func (s *Set) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bitset: Add(%d): negative value", v))
	}
	w := v / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(v%wordBits)
}

// Remove deletes v from the set. Removing an absent value is a no-op.
func (s *Set) Remove(v int) {
	if v < 0 {
		return
	}
	w := v / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(v%wordBits)
	}
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 {
		return false
	}
	w := v / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(v%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// SubsetOf reports whether every element of s is also in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var sw, tw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(t.words) {
			tw = t.words[i]
		}
		if sw != tw {
			return false
		}
	}
	return true
}

// ForEach calls f on every element in increasing order. If f returns false
// the iteration stops early.
func (s *Set) ForEach(f func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
