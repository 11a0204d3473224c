package bitset

import (
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(130)
	if d.Len() != 0 {
		t.Fatalf("fresh Dense: len=%d", d.Len())
	}
	for _, v := range []int{0, 63, 64, 129} {
		d.Add(v)
		if !d.Contains(v) {
			t.Errorf("Contains(%d) false after Add", v)
		}
	}
	if d.Len() != 4 {
		t.Errorf("Len = %d, want 4", d.Len())
	}
	if d.Contains(-1) || d.Contains(130) {
		t.Error("Contains accepted out-of-universe values")
	}
	var got []int
	d.ForEach(func(v int) bool { got = append(got, v); return true })
	want := []int{0, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	n := 0
	d.ForEach(func(v int) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach early stop visited %d elements", n)
	}
}

func TestDenseAddPanicsOutsideUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add outside the universe did not panic")
		}
	}()
	NewDense(8).Add(8)
}

func TestDenseMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Equal across universes did not panic")
		}
	}()
	NewDense(8).Equal(NewDense(9))
}

// Property: Equal, SubsetOf and Hash agree with the reference Set over
// random universes.
func TestDenseMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		a, b := NewDense(n), NewDense(n)
		sa, sb := New(n), New(n)
		for i := 0; i < rng.Intn(2*n); i++ {
			v := rng.Intn(n)
			a.Add(v)
			sa.Add(v)
		}
		for i := 0; i < rng.Intn(2*n); i++ {
			v := rng.Intn(n)
			b.Add(v)
			sb.Add(v)
		}
		if a.Equal(b) != sa.Equal(sb) {
			t.Fatalf("trial %d: Equal disagrees with Set", trial)
		}
		if a.SubsetOf(b) != sa.SubsetOf(sb) {
			t.Fatalf("trial %d: SubsetOf disagrees with Set", trial)
		}
		if a.Len() != sa.Len() {
			t.Fatalf("trial %d: Len disagrees with Set", trial)
		}
		if (a.Hash() == b.Hash()) != sa.Equal(sb) {
			// Hash collisions are possible in principle but must not occur
			// on a 200-trial random corpus; Set.Equal is the exact oracle.
			if a.Equal(b) {
				t.Fatalf("trial %d: equal sets hash differently", trial)
			}
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("trial %d: equal sets hash differently", trial)
		}
	}
}
