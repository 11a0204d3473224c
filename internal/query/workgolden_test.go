package query

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// workGolden is the recorded outcome of one seeded modulo-bitvector
// workload: the work-unit counters and an FNV-1a digest of every answer
// the module gave (Check verdicts, the ordered eviction list of every
// AssignFree, FirstFree and FirstFreeWithAlt results).
type workGolden struct {
	CheckWork, AssignWork, AssignFreeWork, FreeWork int64
	FirstFreeWork, FirstFreeSkips                   int64
	FirstFreeVerdictWords, ModeTransitions          int64
	Unscheduled                                     int64
	Answers                                         uint64
}

// runWorkGolden drives a fixed seeded mix of Check, Assign, AssignFree,
// Free, FirstFree and FirstFreeWithAlt through a modulo bitvector at the
// densest packing for the 64-bit word. Cycles range over several MRT
// periods on both sides of zero so every fold of the modulo writes is
// exercised.
func runWorkGolden(t *testing.T, e *resmodel.Expanded, ii int, seed int64) workGolden {
	t.Helper()
	b, err := NewBitvector(e, MaxCyclesPerWord(len(e.Resources), 64), 64, ii)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	emit := func(vs ...int) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d,", v)
		}
		h.Write([]byte{';'})
	}
	cycle := func() int { return rng.Intn(6*ii+8) - 2*ii - 4 }
	live := map[int][2]int{}
	var liveIDs []int
	id := 0
	for step := 0; step < 600; step++ {
		op := rng.Intn(len(e.Ops))
		switch r := rng.Intn(20); {
		case r < 4:
			c := cycle()
			ok := b.Check(op, c)
			emit(step, 0, boolInt(ok))
			if ok && b.Schedulable(op) && r < 2 {
				b.Assign(op, c, id)
				live[id] = [2]int{op, c}
				liveIDs = append(liveIDs, id)
				id++
			}
		case r < 11:
			if !b.Schedulable(op) {
				continue
			}
			c := cycle()
			ev := b.AssignFree(op, c, id)
			emit(append([]int{step, 1}, ev...)...)
			for _, x := range ev {
				delete(live, x)
			}
			live[id] = [2]int{op, c}
			liveIDs = append(liveIDs, id)
			id++
		case r < 15:
			for len(liveIDs) > 0 {
				i := rng.Intn(len(liveIDs))
				fid := liveIDs[i]
				liveIDs[i] = liveIDs[len(liveIDs)-1]
				liveIDs = liveIDs[:len(liveIDs)-1]
				if in, ok := live[fid]; ok {
					b.Free(in[0], in[1], fid)
					delete(live, fid)
					emit(step, 2, fid)
					break
				}
			}
		case r < 17:
			lo := cycle()
			c, ok := b.FirstFree(op, lo, lo+rng.Intn(2*ii+4))
			emit(step, 3, c, boolInt(ok))
		default:
			orig := rng.Intn(len(e.AltGroup))
			lo := cycle()
			fop, c, ok := b.FirstFreeWithAlt(orig, lo, lo+rng.Intn(2*ii+4))
			emit(step, 4, fop, c, boolInt(ok))
		}
		if step%97 == 0 {
			rowsMatchFlags(t, b, fmt.Sprintf("ii=%d step %d", ii, step))
		}
		if step%150 == 149 {
			// Keep the counters but start a fresh partial schedule, so
			// optimistic mode and its transition recur.
			ctr := *b.Counters()
			b.Reset()
			*b.Counters() = ctr
			clear(live)
			liveIDs = liveIDs[:0]
		}
	}
	c := b.Counters()
	return workGolden{
		CheckWork: c.CheckWork, AssignWork: c.AssignWork, AssignFreeWork: c.AssignFreeWork, FreeWork: c.FreeWork,
		FirstFreeWork: c.FirstFreeWork, FirstFreeSkips: c.FirstFreeSkips,
		FirstFreeVerdictWords: c.FirstFreeVerdictWords, ModeTransitions: c.ModeTransitions,
		Unscheduled: c.Unscheduled, Answers: h.Sum64(),
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestModuloBitvectorWorkGolden pins the work units and every answer of
// a seeded modulo-bitvector workload to values recorded before the
// modulo write path was rewritten without divisions: the rewrite may
// change how a cycle is folded, never what is charged or returned.
func TestModuloBitvectorWorkGolden(t *testing.T) {
	cydra := core.CachedReduce(machines.Cydra5().Expand(), core.Objective{Kind: core.KCycleWord, K: 64}).Reduced
	example := machines.Example().Expand()
	if k := MaxCyclesPerWord(len(cydra.Resources), 64); k != 3 {
		t.Fatalf("reduced Cydra 5 packs %d cycles per word, want 3", k)
	}
	want := map[string]workGolden{
		"cydra5-reduced/ii=1":  {CheckWork: 111, AssignWork: 23, AssignFreeWork: 418, FreeWork: 86, FirstFreeWork: 238, FirstFreeSkips: 23, FirstFreeVerdictWords: 49, ModeTransitions: 3, Unscheduled: 36, Answers: 0x4ddc4572e04f55fa},
		"cydra5-reduced/ii=2":  {CheckWork: 132, AssignWork: 27, AssignFreeWork: 848, FreeWork: 92, FirstFreeWork: 411, FirstFreeSkips: 11, FirstFreeVerdictWords: 95, ModeTransitions: 3, Unscheduled: 83, Answers: 0x569ad71afa993130},
		"cydra5-reduced/ii=3":  {CheckWork: 141, AssignWork: 33, AssignFreeWork: 648, FreeWork: 104, FirstFreeWork: 366, FirstFreeSkips: 13, FirstFreeVerdictWords: 82, ModeTransitions: 4, Unscheduled: 48, Answers: 0x254dfab8dc1bcc80},
		"cydra5-reduced/ii=5":  {CheckWork: 133, AssignWork: 32, AssignFreeWork: 559, FreeWork: 133, FirstFreeWork: 404, FirstFreeSkips: 9, FirstFreeVerdictWords: 99, ModeTransitions: 3, Unscheduled: 37, Answers: 0xf600f6368941a1d6},
		"cydra5-reduced/ii=7":  {CheckWork: 154, AssignWork: 35, AssignFreeWork: 823, FreeWork: 135, FirstFreeWork: 382, FirstFreeSkips: 11, FirstFreeVerdictWords: 93, ModeTransitions: 4, Unscheduled: 58, Answers: 0x988ed00ab82c6181},
		"cydra5-reduced/ii=21": {CheckWork: 228, AssignWork: 79, AssignFreeWork: 2222, FreeWork: 222, FirstFreeWork: 1187, FirstFreeSkips: 10, FirstFreeVerdictWords: 144, ModeTransitions: 4, Unscheduled: 72, Answers: 0xe32de9a595ffc2df},
		"cydra5-reduced/ii=22": {CheckWork: 185, AssignWork: 94, AssignFreeWork: 2198, FreeWork: 251, FirstFreeWork: 1026, FirstFreeSkips: 17, FirstFreeVerdictWords: 146, ModeTransitions: 4, Unscheduled: 73, Answers: 0x214af84e11ed1645},
		"cydra5-reduced/ii=64": {CheckWork: 261, AssignWork: 97, AssignFreeWork: 2817, FreeWork: 277, FirstFreeWork: 1509, FirstFreeSkips: 13, FirstFreeVerdictWords: 135, ModeTransitions: 4, Unscheduled: 59, Answers: 0x4df9b2e721a4667f},
		"cydra5-reduced/ii=65": {CheckWork: 300, AssignWork: 103, AssignFreeWork: 2343, FreeWork: 293, FirstFreeWork: 1392, FirstFreeSkips: 14, FirstFreeVerdictWords: 130, ModeTransitions: 4, Unscheduled: 48, Answers: 0xa029cb8a3fa2249},
		"example/ii=1":         {CheckWork: 124, AssignWork: 11, AssignFreeWork: 507, FreeWork: 60, FirstFreeWork: 168, FirstFreeSkips: 28, FirstFreeVerdictWords: 26, ModeTransitions: 4, Unscheduled: 59, Answers: 0x729f3466f6ef4fd5},
		"example/ii=2":         {CheckWork: 144, AssignWork: 20, AssignFreeWork: 450, FreeWork: 70, FirstFreeWork: 223, FirstFreeSkips: 18, FirstFreeVerdictWords: 41, ModeTransitions: 4, Unscheduled: 47, Answers: 0x2d6ac38d411c5bc0},
		"example/ii=3":         {CheckWork: 111, AssignWork: 19, AssignFreeWork: 387, FreeWork: 84, FirstFreeWork: 270, FirstFreeSkips: 26, FirstFreeVerdictWords: 57, ModeTransitions: 4, Unscheduled: 31, Answers: 0xb9183875d108f426},
		"example/ii=5":         {CheckWork: 119, AssignWork: 32, AssignFreeWork: 1982, FreeWork: 109, FirstFreeWork: 776, FirstFreeSkips: 16, FirstFreeVerdictWords: 135, ModeTransitions: 4, Unscheduled: 124, Answers: 0x1d521e984fda352b},
		"example/ii=7":         {CheckWork: 126, AssignWork: 32, AssignFreeWork: 1915, FreeWork: 103, FirstFreeWork: 672, FirstFreeSkips: 19, FirstFreeVerdictWords: 126, ModeTransitions: 4, Unscheduled: 133, Answers: 0xb3f1a8c32024d9d8},
		"example/ii=21":        {CheckWork: 129, AssignWork: 37, AssignFreeWork: 1906, FreeWork: 105, FirstFreeWork: 765, FirstFreeSkips: 5, FirstFreeVerdictWords: 150, ModeTransitions: 4, Unscheduled: 110, Answers: 0x311466f00dc24933},
		"example/ii=22":        {CheckWork: 103, AssignWork: 30, AssignFreeWork: 1774, FreeWork: 128, FirstFreeWork: 732, FirstFreeSkips: 8, FirstFreeVerdictWords: 133, ModeTransitions: 4, Unscheduled: 102, Answers: 0xc89897a7b6aa72bd},
		"example/ii=64":        {CheckWork: 105, AssignWork: 32, AssignFreeWork: 1765, FreeWork: 117, FirstFreeWork: 721, FirstFreeSkips: 21, FirstFreeVerdictWords: 125, ModeTransitions: 4, Unscheduled: 81, Answers: 0x9304d1e92dcfb24},
		"example/ii=65":        {CheckWork: 121, AssignWork: 47, AssignFreeWork: 1607, FreeWork: 119, FirstFreeWork: 685, FirstFreeSkips: 26, FirstFreeVerdictWords: 118, ModeTransitions: 4, Unscheduled: 68, Answers: 0xf0357e3da1c49719},
	}
	for _, tc := range []struct {
		name string
		e    *resmodel.Expanded
	}{{"cydra5-reduced", cydra}, {"example", example}} {
		for _, ii := range []int{1, 2, 3, 5, 7, 21, 22, 64, 65} {
			key := fmt.Sprintf("%s/ii=%d", tc.name, ii)
			got := runWorkGolden(t, tc.e, ii, int64(1000+ii))
			w, ok := want[key]
			if !ok || got != w {
				t.Errorf("%s: got\n\t%q: %#v,\nwant %#v", key, key, got, w)
			}
		}
	}
}
