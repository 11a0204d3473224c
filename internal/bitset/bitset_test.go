package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Errorf("zero Set not Empty")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
	if s.Contains(0) || s.Contains(63) || s.Contains(64) {
		t.Errorf("empty set Contains returned true")
	}
	if s.String() != "{}" {
		t.Errorf("String = %q, want {}", s.String())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(10)
	vals := []int{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, v := range vals {
		s.Add(v)
	}
	for _, v := range vals {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false after Add", v)
		}
	}
	if s.Len() != len(vals) {
		t.Errorf("Len = %d, want %d", s.Len(), len(vals))
	}
	s.Remove(63)
	s.Remove(1000)
	s.Remove(5000) // absent, beyond capacity: no-op
	if s.Contains(63) || s.Contains(1000) {
		t.Errorf("Contains true after Remove")
	}
	if s.Len() != len(vals)-2 {
		t.Errorf("Len after removes = %d, want %d", s.Len(), len(vals)-2)
	}
	if got := s.Slice(); got[len(got)-1] != 128 {
		t.Errorf("largest element after removes = %d, want 128", got[len(got)-1])
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Add(-1) did not panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestDoubleAddIdempotent(t *testing.T) {
	var s Set
	s.Add(42)
	s.Add(42)
	if s.Len() != 1 {
		t.Errorf("Len = %d after double add, want 1", s.Len())
	}
}

func TestFromSliceAndSlice(t *testing.T) {
	in := []int{5, 3, 3, 70, 0}
	s := FromSlice(in)
	want := []int{0, 3, 5, 70}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestUnionWith(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 100})
	b := FromSlice([]int{2, 3, 4, 200})
	u := a.Clone()
	u.UnionWith(b)
	for _, v := range []int{1, 2, 3, 4, 100, 200} {
		if !u.Contains(v) {
			t.Errorf("union missing %d", v)
		}
	}
	if u.Len() != 6 {
		t.Errorf("union Len = %d, want 6", u.Len())
	}
	if a.Len() != 4 {
		t.Errorf("union through a Clone changed the original: Len = %d, want 4", a.Len())
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice([]int{1, 64})
	b := FromSlice([]int{64})
	if !b.SubsetOf(a) {
		t.Errorf("b.SubsetOf(a) = false")
	}
	if a.SubsetOf(b) {
		t.Errorf("a.SubsetOf(b) = true")
	}
	var empty Set
	if !empty.SubsetOf(a) || !empty.SubsetOf(&empty) {
		t.Errorf("empty set should be subset of everything")
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := New(1000)
	b := New(1)
	a.Add(3)
	b.Add(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("sets with same content but different capacity not Equal")
	}
	b.Add(999)
	if a.Equal(b) {
		t.Errorf("unequal sets reported Equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	var seen []int
	s.ForEach(func(v int) bool {
		seen = append(seen, v)
		return v < 3
	})
	if len(seen) != 3 || seen[2] != 3 {
		t.Errorf("early stop visited %v, want [1 2 3]", seen)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	c := a.Clone()
	a.Remove(2)
	a.Add(70)
	if c.Len() != 3 || !c.Contains(2) || c.Contains(70) {
		t.Errorf("Clone shares storage with original: %v", c)
	}
}

// Property: a Set behaves like a map[int]bool under a random operation
// sequence.
func TestQuickSetVsMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		ref := map[int]bool{}
		for _, o := range ops {
			v := int(o % 300)
			switch rng.Intn(3) {
			case 0:
				s.Add(v)
				ref[v] = true
			case 1:
				s.Remove(v)
				delete(ref, v)
			case 2:
				if s.Contains(v) != ref[v] {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		keys := make([]int, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		got := s.Slice()
		if len(got) != len(keys) {
			return false
		}
		for i := range keys {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative and contains both operands.
func TestQuickAlgebra(t *testing.T) {
	gen := func(vals []uint16) *Set {
		s := &Set{}
		for _, v := range vals {
			s.Add(int(v % 500))
		}
		return s
	}
	f := func(av, bv []uint16) bool {
		a, b := gen(av), gen(bv)
		u1 := a.Clone()
		u1.UnionWith(b)
		u2 := b.Clone()
		u2.UnionWith(a)
		if !u1.Equal(u2) {
			return false
		}
		return a.SubsetOf(u1) && b.SubsetOf(u1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignedBasics(t *testing.T) {
	s := NewSigned(-10, 10)
	if s.Lo() != -10 {
		t.Errorf("Lo = %d, want -10", s.Lo())
	}
	for _, v := range []int{-10, -1, 0, 3, 10} {
		s.Add(v)
	}
	for _, v := range []int{-10, -1, 0, 3, 10} {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if s.Contains(-11) || s.Contains(4) {
		t.Errorf("Contains reported absent value")
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	want := []int{-10, -1, 0, 3, 10}
	got := s.Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	if s.String() != "{-10, -1, 0, 3, 10}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSignedAddBelowRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Add below range did not panic")
		}
	}()
	NewSigned(-5, 5).Add(-6)
}

func TestSignedEqualDifferentOffsets(t *testing.T) {
	a := NewSigned(-10, 10)
	b := NewSigned(-3, 20)
	for _, v := range []int{-2, 0, 7} {
		a.Add(v)
		b.Add(v)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("value-equal Signed sets with different offsets not Equal")
	}
	b.Add(8)
	if a.Equal(b) || b.Equal(a) {
		t.Errorf("unequal Signed sets reported Equal")
	}
	c := NewSigned(-10, 10)
	c.Add(-9) // same Len as a? no: a has 3, c has 1
	if a.Equal(c) {
		t.Errorf("sets with different Len reported Equal")
	}
}

func TestSignedCloneIndependent(t *testing.T) {
	a := NewSigned(-3, 3)
	a.Add(-3)
	c := a.Clone()
	c.Add(2)
	if a.Contains(2) {
		t.Errorf("Clone shares storage")
	}
	if !c.Contains(-3) {
		t.Errorf("Clone lost element")
	}
}

func TestNewSignedEmptyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewSigned with hi<lo did not panic")
		}
	}()
	NewSigned(3, 2)
}
