package bitset

import (
	"fmt"
	"math/bits"
)

// Dense is a bit set over a fixed universe [0, n). Unlike Set it never
// grows: every Dense built for the same universe has the same word count,
// so Equal and SubsetOf are straight word loops with no length
// normalization, and Hash gives a cheap dedup key for grouping sets
// before an Equal confirmation. The reduction pipeline uses Dense for
// per-resource forbidden-triple sets, where the universe (the dense
// triple index) is known up front.
type Dense struct {
	words []uint64
	n     int
}

// NewDense returns an empty set over the universe [0, n).
func NewDense(n int) *Dense {
	if n < 0 {
		n = 0
	}
	return &Dense{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Add inserts v. v must be inside the universe.
func (d *Dense) Add(v int) {
	if v < 0 || v >= d.n {
		panic(fmt.Sprintf("bitset: Dense.Add(%d): outside universe [0, %d)", v, d.n))
	}
	d.words[v/wordBits] |= 1 << uint(v%wordBits)
}

// Contains reports whether v is in the set.
func (d *Dense) Contains(v int) bool {
	if v < 0 || v >= d.n {
		return false
	}
	return d.words[v/wordBits]&(1<<uint(v%wordBits)) != 0
}

// Len returns the number of elements.
func (d *Dense) Len() int {
	n := 0
	for _, w := range d.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether d and o contain the same elements. Both sets must
// share a universe size.
func (d *Dense) Equal(o *Dense) bool {
	if d.n != o.n {
		panic(fmt.Sprintf("bitset: Dense.Equal: universe mismatch %d vs %d", d.n, o.n))
	}
	for i, w := range d.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of d is in o. Both sets must
// share a universe size.
func (d *Dense) SubsetOf(o *Dense) bool {
	if d.n != o.n {
		panic(fmt.Sprintf("bitset: Dense.SubsetOf: universe mismatch %d vs %d", d.n, o.n))
	}
	for i, w := range d.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Hash returns an FNV-1a hash of the set's words. Equal sets hash
// identically; distinct sets collide only with FNV's usual odds, so use
// Hash to bucket candidates and Equal to confirm.
func (d *Dense) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range d.words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> uint(s)) & 0xff
			h *= prime64
		}
	}
	return h
}

// ForEach calls f on every element in increasing order; returning false
// stops the iteration.
func (d *Dense) ForEach(f func(v int) bool) {
	for i, w := range d.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}
