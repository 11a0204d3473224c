// Package forbidden implements Step 1 of the reduction of Eichenberger &
// Davidson (PLDI 1996): computing the forbidden-latency matrix of a machine
// description, and partitioning operations into operation classes à la
// Proebsting & Fraser.
//
// For operations X and Y, the forbidden-latency set F[X][Y] is the set of
// initiation intervals j such that scheduling X exactly j cycles after Y
// produces a resource contention (Equation 1 of the paper):
//
//	F[X][Y] = { cy - cx | some resource i, cx in X_i, cy in Y_i }
//
// where X_i is the usage set of operation X on resource i. Two properties
// follow: 0 is in F[X][X] whenever X uses any resource, and
// f in F[X][Y] iff -f in F[Y][X].
package forbidden

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/resmodel"
)

// Matrix is the forbidden-latency matrix of an expanded machine
// description. Element (x, y) is the set F[x][y] described above, over the
// latency range [-(L-1), L-1] where L is the machine's maximum
// reservation-table span.
type Matrix struct {
	NumOps int
	// Span is the maximum reservation-table span L; every forbidden latency
	// has absolute value < L.
	Span int
	sets [][]*bitset.Signed
}

// Compute builds the forbidden-latency matrix of an expanded machine by
// overlapping every pair of reservation tables (Step 1 of the paper).
// Row x depends only on operation x's usages and the per-resource user
// lists, so it is filled in one pass over x's usages.
func Compute(e *resmodel.Expanded) *Matrix {
	n := len(e.Ops)
	span := e.MaxSpan()
	if span == 0 {
		span = 1 // degenerate machine with no usages at all
	}
	m := &Matrix{NumOps: n, Span: span}
	m.sets = make([][]*bitset.Signed, n)
	// usersOf[r] lists every (op, cycle) usage of resource r.
	type use struct{ op, cycle int }
	usersOf := make([][]use, len(e.Resources))
	for oi, o := range e.Ops {
		for _, u := range o.Table.Uses {
			usersOf[u.Resource] = append(usersOf[u.Resource], use{oi, u.Cycle})
		}
	}
	for x := 0; x < n; x++ {
		row := make([]*bitset.Signed, n)
		for y := 0; y < n; y++ {
			row[y] = bitset.NewSigned(-(span - 1), span-1)
		}
		for _, a := range e.Ops[x].Table.Uses {
			for _, b := range usersOf[a.Resource] {
				// Scheduling x at time t+(b.cycle-a.Cycle) and b.op at time
				// t makes both use this resource simultaneously.
				row[b.op].Add(b.cycle - a.Cycle)
			}
		}
		m.sets[x] = row
	}
	return m
}

// Set returns the forbidden-latency set F[x][y]. The returned set is shared
// with the matrix; callers must not modify it.
func (m *Matrix) Set(x, y int) *bitset.Signed { return m.sets[x][y] }

// Forbidden reports whether scheduling x exactly f cycles after y causes a
// resource contention.
func (m *Matrix) Forbidden(x, y, f int) bool {
	return m.sets[x][y].Contains(f)
}

// NonnegCount returns the total number of non-negative forbidden latencies
// over all ordered operation pairs — the count the paper reports in its
// table captions ("10223 forbidden latencies").
func (m *Matrix) NonnegCount() int {
	n := 0
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			m.sets[x][y].ForEach(func(f int) bool {
				if f >= 0 {
					n++
				}
				return true
			})
		}
	}
	return n
}

// MaxLatency returns the largest forbidden latency (the paper's "all < 41"
// bound is MaxLatency+1), or -1 if the matrix is entirely empty.
func (m *Matrix) MaxLatency() int {
	max := -1
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			s := m.sets[x][y]
			s.ForEach(func(f int) bool {
				if f > max {
					max = f
				}
				return true
			})
		}
	}
	return max
}

// Equal reports whether two matrices encode exactly the same scheduling
// constraints. This is the paper's correctness criterion for a reduced
// machine description.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.NumOps != o.NumOps {
		return false
	}
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			if !m.sets[x][y].Equal(o.sets[x][y]) {
				return false
			}
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference between
// two matrices, or "" if they are equal. Op names are taken from the given
// expanded machine when non-nil.
func (m *Matrix) Diff(o *Matrix, e *resmodel.Expanded) string {
	name := func(i int) string {
		if e != nil && i < len(e.Ops) {
			return e.Ops[i].Name
		}
		return fmt.Sprintf("op%d", i)
	}
	if m.NumOps != o.NumOps {
		return fmt.Sprintf("operation count differs: %d vs %d", m.NumOps, o.NumOps)
	}
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			if !m.sets[x][y].Equal(o.sets[x][y]) {
				return fmt.Sprintf("F[%s][%s] differs: %s vs %s",
					name(x), name(y), m.sets[x][y], o.sets[x][y])
			}
		}
	}
	return ""
}

// SelfOnly reports whether operation x's only forbidden latency is the
// trivial self-contention 0 in F[x][x] — the Rule 4 case of Algorithm 1.
func (m *Matrix) SelfOnly(x int) bool {
	for y := 0; y < m.NumOps; y++ {
		s := m.sets[x][y]
		if y == x {
			if s.Len() != 1 || !s.Contains(0) {
				return false
			}
			continue
		}
		if !s.Empty() {
			return false
		}
	}
	return true
}

// UsesResources reports whether operation x has any forbidden latency at
// all, which (for a valid machine) holds iff it uses at least one resource.
func (m *Matrix) UsesResources(x int) bool {
	return !m.sets[x][x].Empty()
}
