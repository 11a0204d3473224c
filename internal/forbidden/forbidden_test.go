package forbidden

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/resmodel"
)

// figure1 builds the example machine of Figure 1 of the paper.
func figure1() *resmodel.Expanded {
	b := resmodel.NewBuilder("example")
	b.Resources("r0", "r1", "r2", "r3", "r4")
	b.Op("A", 3).Stages(0, "r0", "r1", "r2")
	b.Op("B", 8).
		Use("r1", 0).
		Use("r2", 1).
		UseRange("r3", 2, 5).
		UseRange("r4", 6, 7)
	return b.Build().Expand()
}

// TestFigure1Matrix checks the forbidden-latency matrix of Figure 1b.
func TestFigure1Matrix(t *testing.T) {
	e := figure1()
	m := Compute(e)
	a, bop := e.OpIndex("A"), e.OpIndex("B")

	check := func(x, y int, want []int) {
		t.Helper()
		got := m.Set(x, y).Slice()
		if len(got) != len(want) {
			t.Fatalf("F[%d][%d] = %v, want %v", x, y, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("F[%d][%d] = %v, want %v", x, y, got, want)
			}
		}
	}
	check(a, a, []int{0})
	check(bop, bop, []int{-3, -2, -1, 0, 1, 2, 3})
	check(bop, a, []int{1})  // B cannot issue 1 cycle after A (paper: 1 in F_B,A)
	check(a, bop, []int{-1}) // symmetric negative

	if got := m.NonnegCount(); got != 6 {
		t.Errorf("NonnegCount = %d, want 6 (0 in F_AA; 0..3 in F_BB; 1 in F_BA)", got)
	}
	if got := m.MaxLatency(); got != 3 {
		t.Errorf("MaxLatency = %d, want 3", got)
	}
	if m.Span != 8 {
		t.Errorf("Span = %d, want 8", m.Span)
	}
}

func TestForbiddenQueries(t *testing.T) {
	e := figure1()
	m := Compute(e)
	a, bop := e.OpIndex("A"), e.OpIndex("B")
	if !m.Forbidden(bop, a, 1) {
		t.Errorf("Forbidden(B, A, 1) = false, want true")
	}
	if m.Forbidden(bop, a, 2) {
		t.Errorf("Forbidden(B, A, 2) = true, want false")
	}
	if m.Forbidden(a, bop, 1) {
		t.Errorf("Forbidden(A, B, 1) = true, want false")
	}
	if !m.Forbidden(a, bop, -1) {
		t.Errorf("Forbidden(A, B, -1) = false, want true")
	}
	// Latencies far outside the span are never forbidden.
	if m.Forbidden(bop, bop, 100) || m.Forbidden(bop, bop, -100) {
		t.Errorf("latency beyond span reported forbidden")
	}
}

func TestSelfOnly(t *testing.T) {
	b := resmodel.NewBuilder("m")
	b.Resources("ra", "rb")
	b.Op("lonely", 1).Use("ra", 0) // conflicts only with itself at 0
	b.Op("none", 1)                // uses nothing
	b.Op("x", 1).Use("rb", 0)
	b.Op("y", 1).Use("rb", 1) // conflicts with x
	e := b.Build().Expand()
	m := Compute(e)

	if !m.SelfOnly(e.OpIndex("lonely")) {
		t.Errorf("SelfOnly(lonely) = false")
	}
	if m.SelfOnly(e.OpIndex("none")) {
		t.Errorf("SelfOnly(none) = true, but it has no forbidden latencies at all")
	}
	if m.SelfOnly(e.OpIndex("x")) {
		t.Errorf("SelfOnly(x) = true, but x conflicts with y")
	}
}

func TestEqualAndDiff(t *testing.T) {
	e := figure1()
	m1 := Compute(e)
	m2 := Compute(e)
	if !m1.Equal(m2) {
		t.Fatalf("identical computations not Equal")
	}
	if d := m1.Diff(m2, e); d != "" {
		t.Fatalf("Diff of equal matrices = %q", d)
	}
	// Perturb the machine: drop B's usage of r3 at cycle 5, which removes
	// forbidden latency +-3 from F[B][B]. (Dropping r4@7 would NOT change
	// the matrix — its +-1 contribution is also generated by r3's span.)
	mm := e.Source.Clone()
	uses := mm.Ops[1].Alts[0].Uses[:0]
	for _, u := range mm.Ops[1].Alts[0].Uses {
		if !(u.Resource == 3 && u.Cycle == 5) {
			uses = append(uses, u)
		}
	}
	mm.Ops[1].Alts[0].Uses = uses
	m3 := Compute(mm.Expand())
	if m1.Equal(m3) {
		t.Fatalf("matrices of different machines Equal")
	}
	if d := m1.Diff(m3, e); d == "" {
		t.Fatalf("Diff of different matrices empty")
	}
}

func TestClassesIdenticalOpsMerge(t *testing.T) {
	b := resmodel.NewBuilder("m")
	b.Resources("alu", "wb")
	b.Op("add", 1).Use("alu", 0).Use("wb", 1)
	b.Op("sub", 1).Use("alu", 0).Use("wb", 1) // identical table -> same class
	b.Op("mul", 3).Use("alu", 0).UseRange("wb", 1, 2)
	e := b.Build().Expand()
	m := Compute(e)
	c := m.ComputeClasses()
	if c.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d, want 2", c.NumClasses())
	}
	if c.OfOp[0] != c.OfOp[1] {
		t.Errorf("add and sub in different classes: %v", c.OfOp)
	}
	if c.OfOp[2] == c.OfOp[0] {
		t.Errorf("mul merged with add class")
	}
	if len(c.Members[c.OfOp[0]]) != 2 {
		t.Errorf("class members = %v", c.Members)
	}
}

func TestClassesFigure1Distinct(t *testing.T) {
	e := figure1()
	m := Compute(e)
	c := m.ComputeClasses()
	if c.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d, want 2", c.NumClasses())
	}
}

// classMachine builds an expanded machine holding one operation per class
// (the class representative's reservation table, name and latency), whose
// operation indices are class ids: the oracle Collapse must match.
func classMachine(e *resmodel.Expanded, c *Classes) *resmodel.Expanded {
	out := &resmodel.Expanded{
		Name:      e.Name + ".classes",
		Resources: append([]string(nil), e.Resources...),
	}
	for ci, rep := range c.Rep {
		o := e.Ops[rep]
		out.Ops = append(out.Ops, resmodel.ExpandedOp{
			Name:    o.Name,
			Orig:    ci,
			Latency: o.Latency,
			Table:   o.Table.Clone(),
		})
		out.AltGroup = append(out.AltGroup, []int{ci})
	}
	return out
}

func TestCollapseMatchesClassMachine(t *testing.T) {
	b := resmodel.NewBuilder("m")
	b.Resources("alu", "wb")
	b.Op("add", 1).Use("alu", 0).Use("wb", 1)
	b.Op("sub", 1).Use("alu", 0).Use("wb", 1)
	b.Op("mul", 3).Use("alu", 0).UseRange("wb", 1, 2)
	e := b.Build().Expand()
	m := Compute(e)
	c := m.ComputeClasses()

	collapsed := m.Collapse(c)
	cm := classMachine(e, c)
	recomputed := Compute(cm)
	if !collapsed.Equal(recomputed) {
		t.Fatalf("Collapse disagrees with Compute(classMachine): %s",
			collapsed.Diff(recomputed, cm))
	}
	if len(cm.Ops) != c.NumClasses() {
		t.Fatalf("classMachine ops = %d, want %d", len(cm.Ops), c.NumClasses())
	}
}

// bruteForbidden checks contention by direct reservation-table overlap.
func bruteForbidden(e *resmodel.Expanded, x, y, f int) bool {
	for _, ux := range e.Ops[x].Table.Uses {
		for _, uy := range e.Ops[y].Table.Uses {
			if ux.Resource == uy.Resource && f+ux.Cycle == uy.Cycle {
				return true
			}
		}
	}
	return false
}

// Property: the matrix agrees with brute-force reservation-table overlap on
// random machines, and obeys the two structural properties of Section 3.
func TestQuickMatrixVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		m := Compute(e)
		n := len(e.Ops)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for lat := -(m.Span + 1); lat <= m.Span+1; lat++ {
					if m.Forbidden(x, y, lat) != bruteForbidden(e, x, y, lat) {
						return false
					}
					// Symmetry: f in F[x][y] iff -f in F[y][x].
					if m.Forbidden(x, y, lat) != m.Forbidden(y, x, -lat) {
						return false
					}
				}
			}
			// 0 in F[x][x] iff x uses any resource.
			usesAny := len(e.Ops[x].Table.Uses) > 0
			if m.Forbidden(x, x, 0) != usesAny {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// bruteCollide places every usage of every placement in an explicit
// reservation table (columns folded modulo ii when ii > 0) and reports
// whether any cell is claimed twice.
func bruteCollide(e *resmodel.Expanded, alts, cycles []int, ii int) bool {
	taken := map[[2]int]bool{}
	for k, op := range alts {
		for _, u := range e.Ops[op].Table.Uses {
			c := cycles[k] + u.Cycle
			if ii > 0 {
				c = (c%ii + ii) % ii
			}
			cell := [2]int{u.Resource, c}
			if taken[cell] {
				return true
			}
			taken[cell] = true
		}
	}
	return false
}

// Property: Collision agrees with an explicit reservation table on random
// machines and placements, linear and modulo, and the pair it reports is
// forbidden at a latency congruent to the pair's distance.
func TestQuickCollisionVsBruteForce(t *testing.T) {
	var outcomes [2][2]int // [linear, modulo][clear, collide]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		m := Compute(e)
		n := 1 + rng.Intn(4)
		alts, cycles := make([]int, n), make([]int, n)
		for k := range alts {
			alts[k] = rng.Intn(len(e.Ops))
			cycles[k] = rng.Intn(3 * m.Span)
		}
		for _, ii := range []int{0, 1 + rng.Intn(m.Span+1)} {
			i, j, lat, found := m.Collision(alts, cycles, ii)
			if found != bruteCollide(e, alts, cycles, ii) {
				return false
			}
			form := min(ii, 1)
			if !found {
				outcomes[form][0]++
				continue
			}
			outcomes[form][1]++
			d := cycles[j] - cycles[i]
			if i > j || !m.Forbidden(alts[j], alts[i], lat) {
				return false
			}
			if ii == 0 && (i == j || lat != d) {
				return false
			}
			if ii > 0 && ((lat-d)%ii != 0 || i == j && lat == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for form, o := range outcomes {
		if o[0] == 0 || o[1] == 0 {
			t.Errorf("form %d saw clear/collide %v, want both", form, o)
		}
	}
}

// Property: operations within one class are interchangeable — every
// forbidden-latency set against every third op is identical.
func TestQuickClassInterchangeability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		m := Compute(e)
		c := m.ComputeClasses()
		for _, members := range c.Members {
			rep := members[0]
			for _, x := range members[1:] {
				for z := 0; z < m.NumOps; z++ {
					if !m.Set(x, z).Equal(m.Set(rep, z)) || !m.Set(z, x).Equal(m.Set(z, rep)) {
						return false
					}
				}
			}
		}
		// Class ids must partition the ops.
		total := 0
		for _, members := range c.Members {
			total += len(members)
		}
		return total == m.NumOps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEmptyMachineMatrix(t *testing.T) {
	b := resmodel.NewBuilder("empty")
	b.Resources("r")
	b.Op("nop", 0)
	e := b.Build().Expand()
	m := Compute(e)
	if m.NonnegCount() != 0 {
		t.Errorf("NonnegCount = %d, want 0", m.NonnegCount())
	}
	if m.MaxLatency() != -1 {
		t.Errorf("MaxLatency = %d, want -1", m.MaxLatency())
	}
	c := m.ComputeClasses()
	if c.NumClasses() != 1 {
		t.Errorf("NumClasses = %d, want 1", c.NumClasses())
	}
}
