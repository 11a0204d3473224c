// Package core implements the machine-description reduction of
// Eichenberger & Davidson (PLDI 1996) — the paper's primary contribution.
//
// Given the forbidden-latency matrix of a target machine (package
// forbidden), the reduction proceeds in two steps:
//
//   - Step 2 (GeneratingSet): build the generating set of maximal
//     resources by processing elementary usage pairs with Rules 1-4 of
//     Algorithm 1. A maximal resource is a synthesized resource that (a)
//     forbids only latencies forbidden in the target machine and (b) admits
//     no additional usage without forbidding a latency the target machine
//     does not forbid.
//
//   - Step 3 (Prune + SelectCover): prune dominated resources, then select
//     a subset of the remaining resources and their usages that covers
//     every forbidden latency, minimizing an objective chosen for the
//     scheduler's internal representation (res-uses for a discrete
//     reserved table, k-cycle-word uses for a packed bitvector table).
//
// The resulting reduced machine description generates exactly the same
// forbidden-latency matrix as the original and therefore answers every
// contention query identically; Verify checks this by reconstruction.
package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/forbidden"
)

// U is a resource usage within a synthesized resource: operation (class) Op
// uses the resource in cycle Cycle.
type U struct {
	Op    int
	Cycle int
}

const cycleBits = 15
const cycleMask = 1<<cycleBits - 1

func encodeU(op, cycle int) uint32 {
	if cycle < 0 || cycle > cycleMask {
		panic(fmt.Sprintf("core: usage cycle %d out of range", cycle))
	}
	return uint32(op)<<cycleBits | uint32(cycle)
}

func decodeU(e uint32) U {
	return U{Op: int(e >> cycleBits), Cycle: int(e & cycleMask)}
}

// Resource is a synthesized resource: a set of mutually compatible
// usages, stored as a sorted slice of encoded usages. GeneratingSet builds
// resources as usage bitmaps and hands them out in this form, which Prune,
// SelectCover and ExactCover read. All resources built by the
// generating-set algorithm have their earliest usage in cycle 0 (the
// paper's canonical form).
type Resource struct {
	uses []uint32 // sorted ascending (encoded (op, cycle) order)
}

// NumUses returns the number of usages in the resource.
func (r *Resource) NumUses() int { return len(r.uses) }

// Uses returns the usages sorted by (cycle, op).
func (r *Resource) Uses() []U {
	out := make([]U, 0, len(r.uses))
	for _, e := range r.uses {
		out = append(out, decodeU(e))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// StringWith renders the resource as "{A@0, B@2}" using opName for labels.
func (r *Resource) StringWith(opName func(int) string) string {
	b := []byte{'{'}
	for i, u := range r.Uses() {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, opName(u.Op)...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(u.Cycle), 10)
	}
	return string(append(b, '}'))
}

// ElemPair is the elementary pair associated with a non-negative forbidden
// latency F in F[X][Y]: a usage by X in cycle 0 and a usage by Y in cycle F.
type ElemPair struct {
	X, Y, F int
}

// elementaryPairs lists the elementary pairs of the matrix in deterministic
// order (ascending latency, then operation indices), excluding pairs for
// negative latencies (redundant by symmetry), the 0 self-contention
// latencies (handled by Rule 4), and one of the two mirror-image orderings
// of each latency-0 cross pair.
func elementaryPairs(m *forbidden.Matrix) []ElemPair {
	var pairs []ElemPair
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			m.Set(x, y).ForEach(func(f int) bool {
				if f < 0 {
					return true
				}
				if f == 0 && (x == y || x > y) {
					return true // self-contention or mirror duplicate
				}
				pairs = append(pairs, ElemPair{X: x, Y: y, F: f})
				return true
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.F != b.F {
			return a.F < b.F
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	return pairs
}
