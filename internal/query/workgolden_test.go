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

// runWorkGolden drives the fixed seeded op mix of runGoldenMix through a
// modulo bitvector at the densest packing for the 64-bit word, with a
// Discrete twin its rows are checked against every 97 steps. Cycles
// range over several MRT periods on both sides of zero so every fold of
// the modulo writes is exercised.
func runWorkGolden(t *testing.T, e *resmodel.Expanded, ii int, seed int64) workGolden {
	t.Helper()
	m := newTwinned(t, e, MaxCyclesPerWord(len(e.Resources), 64), ii)
	rng := rand.New(rand.NewSource(seed))
	answers := runGoldenMix(m, e, rng, goldenMix{
		cycle:    func() int { return rng.Intn(6*ii+8) - 2*ii - 4 },
		rangeLen: func() int { return rng.Intn(2*ii + 4) },
		every97:  func(step int) { rowsMatchFlags(t, m, fmt.Sprintf("ii=%d step %d", ii, step)) },
	})
	c := m.Counters()
	return workGolden{
		CheckWork: c.CheckWork, AssignWork: c.AssignWork, AssignFreeWork: c.AssignFreeWork, FreeWork: c.FreeWork,
		FirstFreeWork: c.FirstFreeWork, FirstFreeSkips: c.FirstFreeSkips,
		FirstFreeVerdictWords: c.FirstFreeVerdictWords, ModeTransitions: c.ModeTransitions,
		Unscheduled: c.Unscheduled, Answers: answers,
	}
}

// goldenMix parameterizes runGoldenMix: where query cycles fall, how long
// a range query's [lo, hi] is, and an optional invariant check run every
// 97 steps.
type goldenMix struct {
	cycle    func() int
	rangeLen func() int
	every97  func(step int)
}

// runGoldenMix drives a fixed seeded mix of Check, Assign, AssignFree,
// Free, FirstFree and FirstFreeWithAlt through m and returns an FNV-1a
// digest of every answer: Check verdicts, the ordered eviction list of
// every AssignFree, freed ids and range-query results. Every 150 steps
// the partial schedule restarts (the counters are kept), so the
// bitvector's optimistic mode and its transition recur and a linear
// table is refilled at its grown width.
func runGoldenMix(m Module, e *resmodel.Expanded, rng *rand.Rand, mix goldenMix) uint64 {
	h := fnv.New64a()
	emit := func(vs ...int) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d,", v)
		}
		h.Write([]byte{';'})
	}
	live := map[int][2]int{}
	var liveIDs []int
	id := 0
	for step := 0; step < 600; step++ {
		op := rng.Intn(len(e.Ops))
		switch r := rng.Intn(20); {
		case r < 4:
			c := mix.cycle()
			ok := m.Check(op, c)
			emit(step, 0, boolInt(ok))
			if ok && m.Schedulable(op) && r < 2 {
				m.Assign(op, c, id)
				live[id] = [2]int{op, c}
				liveIDs = append(liveIDs, id)
				id++
			}
		case r < 11:
			if !m.Schedulable(op) {
				continue
			}
			c := mix.cycle()
			ev := m.AssignFree(op, c, id)
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
					m.Free(in[0], in[1], fid)
					delete(live, fid)
					emit(step, 2, fid)
					break
				}
			}
		case r < 17:
			lo := mix.cycle()
			c, ok := m.FirstFree(op, lo, lo+mix.rangeLen())
			emit(step, 3, c, boolInt(ok))
		default:
			orig := rng.Intn(len(e.AltGroup))
			lo := mix.cycle()
			fop, c, ok := m.FirstFreeWithAlt(orig, lo, lo+mix.rangeLen())
			emit(step, 4, fop, c, boolInt(ok))
		}
		if step%97 == 0 && mix.every97 != nil {
			mix.every97(step)
		}
		if step%150 == 149 {
			ctr := *m.Counters()
			m.Reset()
			*m.Counters() = ctr
			clear(live)
			liveIDs = liveIDs[:0]
		}
	}
	return h.Sum64()
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

// counterGolden is the recorded outcome of one seeded workload: every
// counter and the digest of every answer.
type counterGolden struct {
	Ctr     Counters
	Answers uint64
}

// runDiscreteGolden drives runGoldenMix through a discrete module. A
// modulo table (ii > 0) sees the bitvector golden's cycles, on both
// sides of zero. A linear table (ii == 0) sees cycles up to three times
// its initial width, so Check and Assign at far cycles grow it, and
// range queries up to one initial width long, so FirstFree and
// FirstFreeWithAlt scans cross the current width.
func runDiscreteGolden(t *testing.T, e *resmodel.Expanded, ii int, seed int64) counterGolden {
	t.Helper()
	d := NewDiscrete(e, ii)
	rng := rand.New(rand.NewSource(seed))
	mix := goldenMix{
		cycle:    func() int { return rng.Intn(6*ii+8) - 2*ii - 4 },
		rangeLen: func() int { return rng.Intn(2*ii + 4) },
	}
	w := d.c.maxSpan() + 16
	if ii == 0 {
		mix.cycle = func() int { return rng.Intn(3 * w) }
		mix.rangeLen = func() int { return rng.Intn(w) }
	}
	answers := runGoldenMix(d, e, rng, mix)
	if ii == 0 && d.tab.width <= w {
		t.Errorf("linear table never grew past its initial width %d", w)
	}
	return counterGolden{Ctr: *d.Counters(), Answers: answers}
}

// TestDiscreteWorkGolden pins every counter and every answer of a seeded
// discrete workload, on Modulo Reservation Tables and on growing linear
// tables, to values recorded before the module's cell addressing moved
// into one shared table: the move may change how a cell is found, never
// what is charged or returned.
func TestDiscreteWorkGolden(t *testing.T) {
	cydra := core.CachedReduce(machines.Cydra5().Expand(), core.Objective{Kind: core.ResUses}).Reduced
	example := machines.Example().Expand()
	want := map[string]counterGolden{
		"cydra5-reduced/ii=0":  counterGolden{Ctr: Counters{CheckCalls: 138, CheckWork: 825, AssignCalls: 59, AssignWork: 381, AssignFreeCalls: 187, AssignFreeWork: 1136, FreeCalls: 112, FreeWork: 598, CheckWithAltCalls: 0, FirstFreeCalls: 69, FirstFreeWork: 937, FirstFreeCycles: 202, FirstFreeWithAltCalls: 90, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 20, AssignFreeEvicting: 19}, Answers: 0x845eb7c4dda9fdc0},
		"cydra5-reduced/ii=1":  counterGolden{Ctr: Counters{CheckCalls: 121, CheckWork: 191, AssignCalls: 18, AssignWork: 44, AssignFreeCalls: 99, AssignFreeWork: 365, FreeCalls: 84, FreeWork: 235, CheckWithAltCalls: 0, FirstFreeCalls: 51, FirstFreeWork: 224, FirstFreeCycles: 396, FirstFreeWithAltCalls: 84, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 31, AssignFreeEvicting: 31}, Answers: 0xf7d184f5c93ae8f8},
		"cydra5-reduced/ii=2":  counterGolden{Ctr: Counters{CheckCalls: 123, CheckWork: 252, AssignCalls: 27, AssignWork: 74, AssignFreeCalls: 142, AssignFreeWork: 622, FreeCalls: 108, FreeWork: 311, CheckWithAltCalls: 0, FirstFreeCalls: 62, FirstFreeWork: 438, FirstFreeCycles: 461, FirstFreeWithAltCalls: 100, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 55, AssignFreeEvicting: 49}, Answers: 0x17bea056e5efc936},
		"cydra5-reduced/ii=3":  counterGolden{Ctr: Counters{CheckCalls: 123, CheckWork: 259, AssignCalls: 30, AssignWork: 94, AssignFreeCalls: 142, AssignFreeWork: 661, FreeCalls: 102, FreeWork: 321, CheckWithAltCalls: 0, FirstFreeCalls: 61, FirstFreeWork: 517, FirstFreeCycles: 587, FirstFreeWithAltCalls: 95, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 60, AssignFreeEvicting: 52}, Answers: 0xeb938443c0c39528},
		"cydra5-reduced/ii=5":  counterGolden{Ctr: Counters{CheckCalls: 124, CheckWork: 264, AssignCalls: 29, AssignWork: 80, AssignFreeCalls: 154, AssignFreeWork: 730, FreeCalls: 100, FreeWork: 316, CheckWithAltCalls: 0, FirstFreeCalls: 56, FirstFreeWork: 472, FirstFreeCycles: 513, FirstFreeWithAltCalls: 79, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 62, AssignFreeEvicting: 55}, Answers: 0xda550ea3701ed2f1},
		"cydra5-reduced/ii=7":  counterGolden{Ctr: Counters{CheckCalls: 111, CheckWork: 254, AssignCalls: 29, AssignWork: 93, AssignFreeCalls: 134, AssignFreeWork: 520, FreeCalls: 122, FreeWork: 373, CheckWithAltCalls: 0, FirstFreeCalls: 75, FirstFreeWork: 528, FirstFreeCycles: 588, FirstFreeWithAltCalls: 78, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 29, AssignFreeEvicting: 28}, Answers: 0x929cd1f6e9001160},
		"cydra5-reduced/ii=21": counterGolden{Ctr: Counters{CheckCalls: 117, CheckWork: 399, AssignCalls: 33, AssignWork: 129, AssignFreeCalls: 194, AssignFreeWork: 1351, FreeCalls: 109, FreeWork: 412, CheckWithAltCalls: 0, FirstFreeCalls: 64, FirstFreeWork: 2214, FirstFreeCycles: 1001, FirstFreeWithAltCalls: 103, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 76, AssignFreeEvicting: 64}, Answers: 0xf55eec1a3f7ee2ff},
		"cydra5-reduced/ii=22": counterGolden{Ctr: Counters{CheckCalls: 127, CheckWork: 433, AssignCalls: 38, AssignWork: 150, AssignFreeCalls: 194, AssignFreeWork: 1350, FreeCalls: 116, FreeWork: 512, CheckWithAltCalls: 0, FirstFreeCalls: 53, FirstFreeWork: 1478, FirstFreeCycles: 800, FirstFreeWithAltCalls: 93, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 64, AssignFreeEvicting: 54}, Answers: 0x9c4f3f471eea898b},
		"cydra5-reduced/ii=64": counterGolden{Ctr: Counters{CheckCalls: 116, CheckWork: 465, AssignCalls: 45, AssignWork: 165, AssignFreeCalls: 220, AssignFreeWork: 1899, FreeCalls: 108, FreeWork: 503, CheckWithAltCalls: 0, FirstFreeCalls: 67, FirstFreeWork: 2343, FirstFreeCycles: 603, FirstFreeWithAltCalls: 87, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 64, AssignFreeEvicting: 57}, Answers: 0xc55f1778a4a544a6},
		"cydra5-reduced/ii=65": counterGolden{Ctr: Counters{CheckCalls: 120, CheckWork: 529, AssignCalls: 46, AssignWork: 213, AssignFreeCalls: 230, AssignFreeWork: 1759, FreeCalls: 103, FreeWork: 449, CheckWithAltCalls: 0, FirstFreeCalls: 56, FirstFreeWork: 2632, FirstFreeCycles: 853, FirstFreeWithAltCalls: 90, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 68, AssignFreeEvicting: 60}, Answers: 0xc0fb6782c13d2e65},
		"example/ii=0":         counterGolden{Ctr: Counters{CheckCalls: 133, CheckWork: 542, AssignCalls: 50, AssignWork: 210, AssignFreeCalls: 196, AssignFreeWork: 1404, FreeCalls: 116, FreeWork: 558, CheckWithAltCalls: 0, FirstFreeCalls: 65, FirstFreeWork: 1112, FirstFreeCycles: 285, FirstFreeWithAltCalls: 88, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 52, AssignFreeEvicting: 49}, Answers: 0x7863a8d2bafb6c37},
		"example/ii=1":         counterGolden{Ctr: Counters{CheckCalls: 100, CheckWork: 154, AssignCalls: 15, AssignWork: 45, AssignFreeCalls: 98, AssignFreeWork: 438, FreeCalls: 63, FreeWork: 189, CheckWithAltCalls: 0, FirstFreeCalls: 49, FirstFreeWork: 244, FirstFreeCycles: 389, FirstFreeWithAltCalls: 91, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 48, AssignFreeEvicting: 48}, Answers: 0xa9b2e3d5c7a18e95},
		"example/ii=2":         counterGolden{Ctr: Counters{CheckCalls: 112, CheckWork: 170, AssignCalls: 15, AssignWork: 45, AssignFreeCalls: 109, AssignFreeWork: 483, FreeCalls: 66, FreeWork: 198, CheckWithAltCalls: 0, FirstFreeCalls: 55, FirstFreeWork: 307, FirstFreeCycles: 493, FirstFreeWithAltCalls: 99, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 52, AssignFreeEvicting: 52}, Answers: 0xdfcc117e376c30d1},
		"example/ii=3":         counterGolden{Ctr: Counters{CheckCalls: 121, CheckWork: 211, AssignCalls: 27, AssignWork: 81, AssignFreeCalls: 107, AssignFreeWork: 444, FreeCalls: 84, FreeWork: 252, CheckWithAltCalls: 0, FirstFreeCalls: 67, FirstFreeWork: 396, FirstFreeCycles: 525, FirstFreeWithAltCalls: 91, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 41, AssignFreeEvicting: 41}, Answers: 0x95f7da4e1f2193f6},
		"example/ii=5":         counterGolden{Ctr: Counters{CheckCalls: 118, CheckWork: 376, AssignCalls: 22, AssignWork: 106, AssignFreeCalls: 234, AssignFreeWork: 2100, FreeCalls: 100, FreeWork: 510, CheckWithAltCalls: 0, FirstFreeCalls: 60, FirstFreeWork: 1013, FirstFreeCycles: 498, FirstFreeWithAltCalls: 77, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 146, AssignFreeEvicting: 132}, Answers: 0x9d1fcb2cfd0d035e},
		"example/ii=7":         counterGolden{Ctr: Counters{CheckCalls: 126, CheckWork: 446, AssignCalls: 35, AssignWork: 170, AssignFreeCalls: 204, AssignFreeWork: 1715, FreeCalls: 115, FreeWork: 510, CheckWithAltCalls: 0, FirstFreeCalls: 69, FirstFreeWork: 1228, FirstFreeCycles: 574, FirstFreeWithAltCalls: 71, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 116, AssignFreeEvicting: 106}, Answers: 0x38b6e095076c7f04},
		"example/ii=21":        counterGolden{Ctr: Counters{CheckCalls: 116, CheckWork: 412, AssignCalls: 31, AssignWork: 158, AssignFreeCalls: 206, AssignFreeWork: 1739, FreeCalls: 120, FreeWork: 595, CheckWithAltCalls: 0, FirstFreeCalls: 56, FirstFreeWork: 1384, FirstFreeCycles: 509, FirstFreeWithAltCalls: 98, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 97, AssignFreeEvicting: 83}, Answers: 0x31f12d3a41a5f970},
		"example/ii=22":        counterGolden{Ctr: Counters{CheckCalls: 135, CheckWork: 468, AssignCalls: 41, AssignWork: 183, AssignFreeCalls: 217, AssignFreeWork: 1840, FreeCalls: 113, FreeWork: 554, CheckWithAltCalls: 0, FirstFreeCalls: 46, FirstFreeWork: 1380, FirstFreeCycles: 433, FirstFreeWithAltCalls: 82, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 108, AssignFreeEvicting: 93}, Answers: 0x7cef06262d646e91},
		"example/ii=64":        counterGolden{Ctr: Counters{CheckCalls: 119, CheckWork: 538, AssignCalls: 47, AssignWork: 266, AssignFreeCalls: 209, AssignFreeWork: 1609, FreeCalls: 106, FreeWork: 553, CheckWithAltCalls: 0, FirstFreeCalls: 65, FirstFreeWork: 1598, FirstFreeCycles: 497, FirstFreeWithAltCalls: 100, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 79, AssignFreeEvicting: 68}, Answers: 0xf1b1de05e670dae9},
		"example/ii=65":        counterGolden{Ctr: Counters{CheckCalls: 125, CheckWork: 534, AssignCalls: 41, AssignWork: 213, AssignFreeCalls: 223, AssignFreeWork: 1981, FreeCalls: 108, FreeWork: 534, CheckWithAltCalls: 0, FirstFreeCalls: 58, FirstFreeWork: 1220, FirstFreeCycles: 354, FirstFreeWithAltCalls: 83, FirstFreeSkips: 0, FirstFreeVerdictWords: 0, ModeTransitions: 0, Unscheduled: 99, AssignFreeEvicting: 81}, Answers: 0xd625c5610539519b},
	}
	for _, tc := range []struct {
		name string
		e    *resmodel.Expanded
	}{{"cydra5-reduced", cydra}, {"example", example}} {
		for _, ii := range []int{0, 1, 2, 3, 5, 7, 21, 22, 64, 65} {
			key := fmt.Sprintf("%s/ii=%d", tc.name, ii)
			got := runDiscreteGolden(t, tc.e, ii, int64(2000+ii))
			w, ok := want[key]
			if !ok || got != w {
				t.Errorf("%s: got\n\t%q: %#v,\nwant %#v", key, key, got, w)
			}
		}
	}
}

// runLinearBitvectorGolden drives runGoldenMix through a linear bitvector
// at k cycles per word. Query cycles reach six times the initial width
// (the longest span plus 16), so Assign and AssignFree at far cycles
// double the table. Every 97 steps each op is also checked a few cycles
// before the table's current end, so its later words lie beyond the
// table and Check stops at the first of them; those answers are folded
// into the digest.
func runLinearBitvectorGolden(t *testing.T, e *resmodel.Expanded, k int, seed int64) counterGolden {
	t.Helper()
	b, err := NewBitvector(e, k, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	w := b.c.maxSpan() + 16
	words := b.linWords
	edge := fnv.New64a()
	answers := runGoldenMix(b, e, rng, goldenMix{
		cycle:    func() int { return rng.Intn(6 * w) },
		rangeLen: func() int { return rng.Intn(w) },
		every97: func(step int) {
			c := b.linWords*k - 2 - (step/97)%8
			for op := range e.Ops {
				fmt.Fprintf(edge, "%d,%d,%v;", op, c, b.Check(op, c))
			}
		},
	})
	if b.linWords <= words {
		t.Errorf("k=%d: linear table never grew past its initial %d words", k, words)
	}
	return counterGolden{Ctr: *b.Counters(), Answers: answers ^ edge.Sum64()}
}

// TestLinearBitvectorWorkGolden pins every counter and every answer of a
// seeded linear-bitvector workload, at one cycle per word and at the
// densest packing, to values recorded while the packed reserved words
// were still the module's flag state: moving the flags into the verdict
// rows may change how a flag is found, never what is charged or
// returned.
func TestLinearBitvectorWorkGolden(t *testing.T) {
	cydra := core.CachedReduce(machines.Cydra5().Expand(), core.Objective{Kind: core.KCycleWord, K: 64}).Reduced
	example := machines.Example().Expand()
	want := map[string]counterGolden{
		"cydra5-reduced/k=1": {Ctr: Counters{CheckCalls: 509, CheckWork: 1891, AssignCalls: 53, AssignWork: 291, AssignFreeCalls: 235, AssignFreeWork: 3123, FreeCalls: 114, FreeWork: 657, CheckWithAltCalls: 0, FirstFreeCalls: 56, FirstFreeWork: 866, FirstFreeCycles: 195, FirstFreeWithAltCalls: 80, FirstFreeSkips: 69, FirstFreeVerdictWords: 69, ModeTransitions: 4, Unscheduled: 37, AssignFreeEvicting: 33}, Answers: 0x92cb78e9dd5a9aab},
		"cydra5-reduced/k=3": {Ctr: Counters{CheckCalls: 521, CheckWork: 1165, AssignCalls: 51, AssignWork: 169, AssignFreeCalls: 215, AssignFreeWork: 2513, FreeCalls: 107, FreeWork: 308, CheckWithAltCalls: 0, FirstFreeCalls: 56, FirstFreeWork: 1257, FirstFreeCycles: 350, FirstFreeWithAltCalls: 99, FirstFreeSkips: 58, FirstFreeVerdictWords: 98, ModeTransitions: 4, Unscheduled: 21, AssignFreeEvicting: 20}, Answers: 0xd4c412a58959b151},
		"example/k=1":        {Ctr: Counters{CheckCalls: 124, CheckWork: 527, AssignCalls: 41, AssignWork: 223, AssignFreeCalls: 239, AssignFreeWork: 1996, FreeCalls: 112, FreeWork: 641, CheckWithAltCalls: 0, FirstFreeCalls: 55, FirstFreeWork: 530, FirstFreeCycles: 212, FirstFreeWithAltCalls: 82, FirstFreeSkips: 53, FirstFreeVerdictWords: 84, ModeTransitions: 4, Unscheduled: 53, AssignFreeEvicting: 52}, Answers: 0xaa7974aa0f546b2},
		"example/k=12":       {Ctr: Counters{CheckCalls: 137, CheckWork: 170, AssignCalls: 48, AssignWork: 59, AssignFreeCalls: 194, AssignFreeWork: 1222, FreeCalls: 123, FreeWork: 158, CheckWithAltCalls: 0, FirstFreeCalls: 58, FirstFreeWork: 739, FirstFreeCycles: 270, FirstFreeWithAltCalls: 99, FirstFreeSkips: 26, FirstFreeVerdictWords: 131, ModeTransitions: 4, Unscheduled: 35, AssignFreeEvicting: 35}, Answers: 0x38cddeb3ef06c736},
	}
	for _, tc := range []struct {
		name string
		e    *resmodel.Expanded
	}{{"cydra5-reduced", cydra}, {"example", example}} {
		for _, k := range []int{1, MaxCyclesPerWord(len(tc.e.Resources), 64)} {
			key := fmt.Sprintf("%s/k=%d", tc.name, k)
			got := runLinearBitvectorGolden(t, tc.e, k, int64(3000+k))
			w, ok := want[key]
			if !ok || got != w {
				t.Errorf("%s: got\n\t%q: %#v,\nwant %#v", key, key, got, w)
			}
		}
	}
}
