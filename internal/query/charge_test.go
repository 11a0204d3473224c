package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/resmodel"
)

// packedWord is one non-empty word of a packed reservation table: Word is
// the word offset from the query cycle's base word, Bits the resource
// flags for the K cycles the word covers.
type packedWord struct {
	Word int
	Bits uint64
}

// packUses packs usages shifted by align cycles into sorted non-empty
// words of k cycles each — Section 7's packed table, built here apart
// from the charge table it checks.
func packUses(uses []resmodel.Usage, nRes, k, align int) []packedWord {
	words := map[int]uint64{}
	for _, u := range uses {
		c := u.Cycle + align
		words[c/k] |= 1 << uint((c%k)*nRes+u.Resource)
	}
	out := make([]packedWord, 0, len(words))
	for w, bits := range words {
		out = append(out, packedWord{Word: w, Bits: bits})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Word < out[j].Word })
	return out
}

// packedCheck answers a Check of op at cycle the way the packed table
// does: AND each packed word against the reserved flags of the k cycles
// it covers, read from the Discrete twin's owned cells, and stop at the
// first conflicting word. A linear word at or beyond the bitvector's
// width ends the check as free. It returns the answer and the words
// charged: the index of the stopping word plus one, or every word.
func packedCheck(m twinned, op, cycle int) (bool, int64) {
	b := m.Bitvector
	a, base, s := 0, 0, 0
	if b.ii > 0 {
		s = fold(cycle, b.ii)
	} else {
		a, base = cycle%b.k, cycle/b.k
	}
	words := packUses(b.c.uses[op], b.nRes, b.k, a)
	for i, w := range words {
		if b.ii == 0 && base+w.Word >= b.linWords {
			return true, int64(i + 1)
		}
		var reserved uint64
		for c := 0; c < b.k; c++ {
			col := (base+w.Word)*b.k + c
			if b.ii > 0 {
				col = (s + w.Word*b.k + c) % b.ii
			}
			for r := 0; r < b.nRes; r++ {
				if m.d.tab.get(r, col) >= 0 {
					reserved |= 1 << uint(c*b.nRes+r)
				}
			}
		}
		if reserved&w.Bits != 0 {
			return false, int64(i + 1)
		}
	}
	return true, int64(len(words))
}

// TestChargesMatchPackedWords pins the bitvector's work units to the
// packed table they stand for. On random machines, linear and modulo, at
// one cycle per word and at the densest packing, every Check must answer
// and charge as packedCheck does, and every Assign and Free must charge
// one unit per packed word of the op at its cycle. Linear cycles reach
// past the initial width, so tables grow and checks cross their end.
func TestChargesMatchPackedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	conflicts, beyond := 0, 0
	for mi := 0; mi < 12; mi++ {
		e := resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand()
		for _, ii := range []int{0, 1 + rng.Intn(9)} {
			for _, k := range []int{1, MaxCyclesPerWord(len(e.Resources), 64)} {
				m := newTwinned(t, e, k, ii)
				b := m.Bitvector
				span := 4 * (b.c.maxSpan() + 16)
				if ii > 0 {
					span = 3 * ii
				}
				type placed struct{ op, cycle, id int }
				var live []placed
				for step := 0; step < 200; step++ {
					ctx := fmt.Sprintf("machine %d ii=%d k=%d step %d", mi, ii, k, step)
					op, cyc := rng.Intn(len(e.Ops)), rng.Intn(span)
					if !b.Schedulable(op) {
						continue
					}
					a := 0
					if ii == 0 {
						a = cyc % b.k
					}
					words := int64(len(packUses(b.c.uses[op], b.nRes, b.k, a)))
					if rng.Intn(3) == 0 && len(live) > 0 {
						i := rng.Intn(len(live))
						in := live[i]
						live = append(live[:i], live[i+1:]...)
						fa := 0
						if ii == 0 {
							fa = in.cycle % b.k
						}
						w0 := b.ctr.FreeWork
						m.Free(in.op, in.cycle, in.id)
						if got, want := b.ctr.FreeWork-w0, int64(len(packUses(b.c.uses[in.op], b.nRes, b.k, fa))); got != want {
							t.Fatalf("%s: Free(%d, %d) charged %d, want %d words", ctx, in.op, in.cycle, got, want)
						}
						continue
					}
					want, charge := packedCheck(m, op, cyc)
					w0 := b.ctr.CheckWork
					if got := m.Check(op, cyc); got != want {
						t.Fatalf("%s: Check(%d, %d) = %v, packed table says %v", ctx, op, cyc, got, want)
					}
					if got := b.ctr.CheckWork - w0; got != charge {
						t.Fatalf("%s: Check(%d, %d) charged %d, packed table %d", ctx, op, cyc, got, charge)
					}
					if !want {
						conflicts++
					} else if charge < words {
						beyond++
					}
					if want {
						w0 = b.ctr.AssignWork
						m.Assign(op, cyc, step)
						if got := b.ctr.AssignWork - w0; got != words {
							t.Fatalf("%s: Assign(%d, %d) charged %d, want %d words", ctx, op, cyc, got, words)
						}
						live = append(live, placed{op, cyc, step})
					}
				}
			}
		}
	}
	if conflicts == 0 || beyond == 0 {
		t.Fatalf("%d conflicting checks, %d checks stopped beyond a linear table: both paths must run", conflicts, beyond)
	}
	t.Logf("%d conflicting checks, %d stopped beyond a linear table", conflicts, beyond)
}
