package forbidden

import (
	"repro/internal/bitset"
)

// Classes is a partition of a machine's (expanded) operations into
// operation classes: X and Y belong to the same class iff F[X][Z] == F[Y][Z]
// and F[Z][X] == F[Z][Y] for every operation Z (Proebsting & Fraser's
// criterion, as adopted in Section 3 of the paper). Operations in one class
// impose identical scheduling constraints, so the reduced description needs
// only one reservation table per class.
type Classes struct {
	// OfOp maps an operation index to its class id.
	OfOp []int
	// Rep maps a class id to a representative operation index.
	Rep []int
	// Members maps a class id to all member operation indices.
	Members [][]int
}

// NumClasses returns the number of operation classes.
func (c *Classes) NumClasses() int { return len(c.Rep) }

// ComputeClasses partitions the operations of the matrix into classes.
func (m *Matrix) ComputeClasses() *Classes {
	c := &Classes{OfOp: make([]int, m.NumOps)}
	for x := 0; x < m.NumOps; x++ {
		found := -1
		for ci, rep := range c.Rep {
			if m.sameClass(x, rep) {
				found = ci
				break
			}
		}
		if found < 0 {
			found = len(c.Rep)
			c.Rep = append(c.Rep, x)
			c.Members = append(c.Members, nil)
		}
		c.OfOp[x] = found
		c.Members[found] = append(c.Members[found], x)
	}
	return c
}

// sameClass reports whether ops x and y have identical rows and columns in
// the forbidden-latency matrix: F[x][z] == F[y][z] and F[z][x] == F[z][y]
// for every z. Note that taking z = x and z = y forces
// F[x][x] == F[x][y] == F[y][x] == F[y][y], so members of one class are
// fully interchangeable in every contention query.
func (m *Matrix) sameClass(x, y int) bool {
	if x == y {
		return true
	}
	for z := 0; z < m.NumOps; z++ {
		if !m.sets[x][z].Equal(m.sets[y][z]) {
			return false
		}
		if !m.sets[z][x].Equal(m.sets[z][y]) {
			return false
		}
	}
	return true
}

// Collapse restricts the matrix to one representative per class, producing
// the class-level forbidden-latency matrix that drives reduction. The
// element (a, b) of the result is F[Rep[a]][Rep[b]].
func (m *Matrix) Collapse(c *Classes) *Matrix {
	n := c.NumClasses()
	out := &Matrix{NumOps: n, Span: m.Span}
	out.sets = make([][]*bitset.Signed, n)
	for a := 0; a < n; a++ {
		out.sets[a] = make([]*bitset.Signed, n)
		for b := 0; b < n; b++ {
			out.sets[a][b] = m.sets[c.Rep[a]][c.Rep[b]].Clone()
		}
	}
	return out
}
