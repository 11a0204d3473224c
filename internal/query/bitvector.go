package query

import (
	"fmt"
	"sort"

	"repro/internal/resmodel"
)

// packedWord is one non-empty word of a packed reservation table: Word is
// the word offset from the query cycle's base word, Bits the resource
// flags for the K cycles the word covers.
type packedWord struct {
	Word int
	Bits uint64
}

// Bitvector is the bitvector-representation reserved table: the per-cycle
// resource flags are packed K cycle-bitvectors per memory word, so one
// AND-and-test detects contentions for K consecutive cycles. With II > 0
// it is a Modulo Reservation Table.
//
// assign&free starts in optimistic mode, carrying no operation-owner
// fields; the first conflict forces a transition to update mode, which
// scans the scheduled-instance list to reconstruct the owner fields and
// maintains them thereafter (Section 7). free stays word-based in both
// modes: the bitvector flags are the source of truth, and a stale owner
// entry under a cleared flag is never consulted.
type Bitvector struct {
	e        *resmodel.Expanded
	c        *compiled
	ii       int // 0 = linear
	nRes     int
	k        int // effective cycles per word
	wordBits int
	cycMask  uint64 // low nRes bits

	// packed[op][alignment], sorted by word: the table placed a cycles
	// into its base word, so a probe at cycle t ANDs packed[op][t%k]
	// word-aligned against the reserved words starting at t/k. Linear
	// tables grow reserved[w] (covering cycles [w*k, (w+1)*k)) on demand.
	packed   [][][]packedWord
	reserved []uint64

	// Modulo: packed0[op] is the alignment-0 packing of the folded table
	// (what Check/Assign start from); mirror covers cycles [0, 2*II)
	// (both images kept in sync) so any k-cycle window starting in
	// [0, II) is read from adjacent words without wraparound.
	packed0 [][]packedWord
	mirror  []uint64

	// occ is the occupancy summary bitmap: bit w is set iff word w of the
	// backing table (mirror for modulo, reserved for linear) is non-zero.
	// It is maintained on every table mutation and lets range scans answer
	// "this candidate's whole word window is free" in O(1) instead of
	// reading the rows of every usage.
	occ []uint64

	// rows backs the bit-parallel verdict scan (see verdict.go): one
	// cycle-bitmap of rowW words per resource, flat. Modulo tables keep
	// three images (bit p == busy(p mod II) for p in [0, 3*II)) so any
	// window read stays in bounds; linear tables map bit t to cycle t and
	// grow in step with reserved. Maintained by the same mutations that
	// maintain mirror/reserved. altVerdict is the FirstFreeWithAlt
	// scratch holding one verdict word per alternative (sized for the
	// largest group at construction, so scans allocate nothing).
	rows       []uint64
	rowW       int
	altVerdict []uint64

	// Alternative-union packed words for the fast check-with-alt path
	// (nil until EnableFastAlt).
	altUnion  [][][]packedWord // linear: [origOp][alignment]
	altUnion0 [][]packedWord   // modulo: [origOp]

	inst       map[int]instance
	updateMode bool
	owners     []int32
	ownerWidth int
	// evictScratch backs the slice AssignFree returns, reused across
	// calls so steady-state eviction allocates nothing.
	evictScratch []int
	ctr          Counters
	met          *moduleObs // nil while metrics are disabled
}

// NewBitvector creates a bitvector-representation module. k is the number
// of cycle-bitvectors packed per word of wordBits bits (use
// MaxCyclesPerWord to derive the densest legal packing); ii == 0 selects a
// linear reserved table, ii > 0 a Modulo Reservation Table. For modulo
// tables the effective packing is capped at ii cycles per word.
func NewBitvector(e *resmodel.Expanded, k, wordBits, ii int) (*Bitvector, error) {
	nRes := len(e.Resources)
	if wordBits != 32 && wordBits != 64 {
		return nil, fmt.Errorf("query: wordBits must be 32 or 64, got %d", wordBits)
	}
	if k < 1 {
		return nil, fmt.Errorf("query: k must be >= 1, got %d", k)
	}
	if k*nRes > wordBits {
		return nil, fmt.Errorf("query: %d cycles x %d resources = %d bits exceed the %d-bit word",
			k, nRes, k*nRes, wordBits)
	}
	if ii < 0 {
		return nil, fmt.Errorf("query: negative II %d", ii)
	}
	if ii > 0 && k > ii {
		k = ii // a word may not cover more cycles than the MRT has columns
	}
	b := &Bitvector{
		e: e, c: compileFor(e, ii), ii: ii, nRes: nRes, k: k, wordBits: wordBits,
		cycMask: uint64(1)<<uint(nRes) - 1,
		inst:    map[int]instance{},
		met:     newModuleObs("bitvector"),
	}
	pt := b.c.packsFor(nRes, k)
	b.packed = pt.packed
	if ii > 0 {
		b.packed0 = pt.packed0
		b.mirror = make([]uint64, (2*ii+k-1)/k+2)
		b.occ = make([]uint64, (len(b.mirror)+63)/64)
		b.rowW = (3*ii+63)/64 + 1
	} else {
		b.reserved = make([]uint64, (b.c.maxSpan()+16)/k+2)
		b.occ = make([]uint64, (len(b.reserved)+63)/64)
		b.rowW = (len(b.reserved)*k+63)/64 + 1
	}
	b.rows = make([]uint64, nRes*b.rowW)
	maxGroup := 1
	for _, g := range e.AltGroup {
		if len(g) > maxGroup {
			maxGroup = len(g)
		}
	}
	b.altVerdict = make([]uint64, maxGroup)
	return b, nil
}

// MaxCyclesPerWord returns the densest legal packing for a machine with
// numResources resources in a word of wordBits bits, or 0 if even one
// cycle does not fit.
func MaxCyclesPerWord(numResources, wordBits int) int {
	if numResources <= 0 {
		return 0
	}
	return wordBits / numResources
}

// packUses packs usages shifted by align cycles into sorted non-empty
// words of k cycles each.
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

// II returns the initiation interval (0 for a linear table).
func (b *Bitvector) II() int { return b.ii }

// K returns the effective number of cycles per word.
func (b *Bitvector) K() int { return b.k }

// UpdateMode reports whether assign&free has transitioned from optimistic
// to update mode.
func (b *Bitvector) UpdateMode() bool { return b.updateMode }

// Schedulable implements Module.
func (b *Bitvector) Schedulable(op int) bool { return !b.c.selfConf[op] }

// WordsPerOp returns the number of non-empty packed words of op's
// reservation table at the given alignment — the work an unobstructed
// Check performs.
func (b *Bitvector) WordsPerOp(op, align int) int {
	if b.ii > 0 {
		return len(b.packed0[op])
	}
	return len(b.packed[op][align%b.k])
}

// --- low-level helpers ---

// growWords extends the linear reserved table to cover word w, doubling
// capacity with a single zeroed allocation (no temporary append slice).
// The occupancy summary grows in step so it always covers every word.
func (b *Bitvector) growWords(w int) {
	if w < len(b.reserved) {
		return
	}
	n := len(b.reserved)
	if n == 0 {
		n = 1
	}
	for n <= w {
		n *= 2
	}
	grown := make([]uint64, n)
	copy(grown, b.reserved)
	b.reserved = grown
	if need := (n + 63) / 64; need > len(b.occ) {
		occ := make([]uint64, need)
		copy(occ, b.occ)
		b.occ = occ
	}
	// The verdict rows cover every cycle the reserved words do; regrow
	// them in step, re-laying each resource's row out at the new stride.
	if need := (n*b.k+63)/64 + 1; need > b.rowW {
		rows := make([]uint64, b.nRes*need)
		for r := 0; r < b.nRes; r++ {
			copy(rows[r*need:], b.rows[r*b.rowW:(r+1)*b.rowW])
		}
		b.rows, b.rowW = rows, need
	}
}

// occMark records word wi of the backing table as non-zero; occSync
// re-derives word wi's summary bit from its current value after bits
// were cleared. Together they maintain the invariant
// occ[wi/64] bit wi%64 == (word wi != 0) at every mutation site.
func (b *Bitvector) occMark(wi int) { b.occ[wi>>6] |= 1 << uint(wi&63) }

func (b *Bitvector) occSync(wi int, word uint64) {
	if word == 0 {
		b.occ[wi>>6] &^= 1 << uint(wi&63)
	}
}

// occAny reports whether any word in [lo, hi] of the backing table is
// non-zero, reading only the summary bitmap.
func (b *Bitvector) occAny(lo, hi int) bool {
	w1, w2 := lo>>6, hi>>6
	headMask := ^uint64(0) << uint(lo&63)
	tailMask := ^uint64(0) >> uint(63-(hi&63))
	if w1 == w2 {
		return b.occ[w1]&headMask&tailMask != 0
	}
	if b.occ[w1]&headMask != 0 {
		return true
	}
	for w := w1 + 1; w < w2; w++ {
		if b.occ[w] != 0 {
			return true
		}
	}
	return b.occ[w2]&tailMask != 0
}

func (b *Bitvector) modCycle(cycle int) int {
	c := cycle % b.ii
	if c < 0 {
		c += b.ii
	}
	return c
}

// window reads the k-cycle window of reserved flags starting at absolute
// MRT cycle s in [0, II); its low k*nRes bits are cycles s .. s+k-1 (mod II).
func (b *Bitvector) window(s int) uint64 {
	p := s / b.k
	offCyc := s % b.k
	off := uint(offCyc * b.nRes)
	v := b.mirror[p] >> off
	if offCyc > 0 {
		v |= b.mirror[p+1] << uint((b.k-offCyc)*b.nRes)
	}
	return v
}

// orCycle ORs one cycle's resource flags into MRT cycle t, maintaining
// both mirror images.
func (b *Bitvector) orCycle(t int, bits uint64) {
	for _, tt := range [2]int{t, t + b.ii} {
		wi := tt / b.k
		b.mirror[wi] |= bits << uint((tt%b.k)*b.nRes)
		b.occMark(wi)
	}
	b.rowsOrCycleMod(t, bits)
}

func (b *Bitvector) andNotCycle(t int, bits uint64) {
	for _, tt := range [2]int{t, t + b.ii} {
		wi := tt / b.k
		b.mirror[wi] &^= bits << uint((tt%b.k)*b.nRes)
		b.occSync(wi, b.mirror[wi])
	}
	b.rowsAndNotCycleMod(t, bits)
}

// orWordMod ORs a packed word (starting at MRT cycle s, in [0, II)) into
// the mirror, cycle by cycle with wraparound.
func (b *Bitvector) orWordMod(w packedWord, s int) {
	for c := 0; c < b.k; c++ {
		bits := (w.Bits >> uint(c*b.nRes)) & b.cycMask
		if bits != 0 {
			b.orCycle((s+c)%b.ii, bits)
		}
	}
}

func (b *Bitvector) andNotWordMod(w packedWord, s int) {
	for c := 0; c < b.k; c++ {
		bits := (w.Bits >> uint(c*b.nRes)) & b.cycMask
		if bits != 0 {
			b.andNotCycle((s+c)%b.ii, bits)
		}
	}
}

// wordStart returns the MRT cycle where op's packed word w starts for a
// query at cycle jm (already reduced mod II).
func (b *Bitvector) wordStart(jm int, w packedWord) int {
	return (jm + w.Word*b.k) % b.ii
}

// --- Module implementation ---

// Check implements Module: one AND-and-test per non-empty reservation
// word, aborting at the first conflict.
func (b *Bitvector) Check(op, cycle int) bool {
	b.ctr.CheckCalls++
	w0 := b.ctr.CheckWork
	ok := false
	if b.c.selfConf[op] {
		b.ctr.CheckWork++
	} else {
		ok = b.check(op, cycle)
	}
	b.met.OnCheck(b.ctr.CheckWork - w0)
	return ok
}

func (b *Bitvector) check(op, cycle int) bool {
	if b.ii > 0 {
		jm := b.modCycle(cycle)
		for _, w := range b.packed0[op] {
			b.ctr.CheckWork++
			if b.window(b.wordStart(jm, w))&w.Bits != 0 {
				return false
			}
		}
		return true
	}
	if cycle < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", cycle))
	}
	a, base := cycle%b.k, cycle/b.k
	for _, w := range b.packed[op][a] {
		b.ctr.CheckWork++
		wi := base + w.Word
		if wi >= len(b.reserved) {
			// Words are sorted, so this word and every later one lie
			// beyond the reserved table and are trivially free. The
			// comparison that discovered that is the one work unit
			// charged above — mirroring the modulo path, where every
			// probed word costs exactly one unit.
			break
		}
		if b.reserved[wi]&w.Bits != 0 {
			return false
		}
	}
	return true
}

// Assign implements Module: one OR per non-empty reservation word.
func (b *Bitvector) Assign(op, cycle, id int) {
	b.ctr.AssignCalls++
	b.mustSchedulable(op)
	w0 := b.ctr.AssignWork
	b.orTable(op, cycle, &b.ctr.AssignWork)
	b.inst[id] = instance{op, cycle}
	if b.updateMode {
		b.setOwners(op, cycle, int32(id))
	}
	b.met.OnAssign(b.ctr.AssignWork - w0)
}

func (b *Bitvector) orTable(op, cycle int, work *int64) {
	if b.ii > 0 {
		jm := b.modCycle(cycle)
		for _, w := range b.packed0[op] {
			*work++
			b.orWordMod(w, b.wordStart(jm, w))
		}
		return
	}
	a, base := cycle%b.k, cycle/b.k
	for _, w := range b.packed[op][a] {
		*work++
		wi := base + w.Word
		b.growWords(wi)
		b.reserved[wi] |= w.Bits
		b.occMark(wi)
		b.rowsOrWordLin(wi, w.Bits)
	}
}

func (b *Bitvector) andNotTable(op, cycle int, work *int64) {
	if b.ii > 0 {
		jm := b.modCycle(cycle)
		for _, w := range b.packed0[op] {
			*work++
			b.andNotWordMod(w, b.wordStart(jm, w))
		}
		return
	}
	a, base := cycle%b.k, cycle/b.k
	for _, w := range b.packed[op][a] {
		*work++
		wi := base + w.Word
		if wi < len(b.reserved) {
			b.reserved[wi] &^= w.Bits
			b.occSync(wi, b.reserved[wi])
			b.rowsAndNotWordLin(wi, w.Bits)
		}
	}
}

// Free implements Module: one AND-NOT per non-empty reservation word.
func (b *Bitvector) Free(op, cycle, id int) {
	b.ctr.FreeCalls++
	w0 := b.ctr.FreeWork
	b.andNotTable(op, cycle, &b.ctr.FreeWork)
	delete(b.inst, id)
	b.met.OnFree(b.ctr.FreeWork - w0)
}

// AssignFree implements Module.
func (b *Bitvector) AssignFree(op, cycle, id int) []int {
	b.ctr.AssignFreeCalls++
	b.mustSchedulable(op)
	w0 := b.ctr.AssignFreeWork
	if !b.updateMode {
		if b.optimisticAssign(op, cycle) {
			b.inst[id] = instance{op, cycle}
			b.met.OnAssignFree(b.ctr.AssignFreeWork-w0, 0)
			return nil
		}
		// Conflict: transition from optimistic to update mode.
		b.ctr.ModeTransitions++
		b.met.OnModeTransition()
		b.enterUpdateMode()
	}
	evicted := b.updateAssignFree(op, cycle, id)
	b.inst[id] = instance{op, cycle}
	b.ctr.Unscheduled += int64(len(evicted))
	if len(evicted) > 0 {
		b.ctr.AssignFreeEvicting++
	}
	b.met.OnAssignFree(b.ctr.AssignFreeWork-w0, len(evicted))
	return evicted
}

func (b *Bitvector) mustSchedulable(op int) {
	if b.c.selfConf[op] {
		panic(fmt.Sprintf("query: op %q is unschedulable at II=%d (reservation table folds onto itself)",
			b.e.Ops[op].Name, b.ii))
	}
}

// optimisticAssign is the single-pass AND-test-then-OR of optimistic mode;
// on conflict it rolls back the words already ORed (the rollback handling
// is counted as work) and reports failure.
func (b *Bitvector) optimisticAssign(op, cycle int) bool {
	if b.ii > 0 {
		jm := b.modCycle(cycle)
		words := b.packed0[op]
		for i, w := range words {
			b.ctr.AssignFreeWork++
			s := b.wordStart(jm, w)
			if b.window(s)&w.Bits != 0 {
				for j := 0; j < i; j++ {
					b.ctr.AssignFreeWork++
					b.andNotWordMod(words[j], b.wordStart(jm, words[j]))
				}
				return false
			}
			b.orWordMod(w, s)
		}
		return true
	}
	a, base := cycle%b.k, cycle/b.k
	words := b.packed[op][a]
	for i, w := range words {
		b.ctr.AssignFreeWork++
		wi := base + w.Word
		b.growWords(wi)
		if b.reserved[wi]&w.Bits != 0 {
			for j := 0; j < i; j++ {
				b.ctr.AssignFreeWork++
				wj := base + words[j].Word
				b.reserved[wj] &^= words[j].Bits
				b.occSync(wj, b.reserved[wj])
				b.rowsAndNotWordLin(wj, words[j].Bits)
			}
			return false
		}
		b.reserved[wi] |= w.Bits
		b.occMark(wi)
		b.rowsOrWordLin(wi, w.Bits)
	}
	return true
}

// enterUpdateMode materializes the owner grid by scanning the entire
// scheduled-instance list; each reconstructed usage is one work unit,
// charged to the AssignFree that triggered the transition.
func (b *Bitvector) enterUpdateMode() {
	b.updateMode = true
	if b.ii > 0 {
		b.ownerWidth = b.ii
	} else {
		need := 16
		for _, in := range b.inst {
			if end := in.cycle + b.c.spans[in.op]; end > need {
				need = end
			}
		}
		b.ownerWidth = need
	}
	if n := b.nRes * b.ownerWidth; cap(b.owners) >= n {
		b.owners = b.owners[:n]
	} else {
		b.owners = make([]int32, n)
	}
	for i := range b.owners {
		b.owners[i] = -1
	}
	for id, in := range b.inst {
		b.ctr.AssignFreeWork += int64(len(b.c.uses[in.op]))
		b.setOwners(in.op, in.cycle, int32(id))
	}
}

func (b *Bitvector) ownerCell(r, cycle int) *int32 {
	var c int
	if b.ii > 0 {
		c = b.modCycle(cycle)
	} else {
		if cycle >= b.ownerWidth {
			// Double the grid width; only the fresh tail of each resource
			// row needs the -1 (unowned) fill. When the backing array is
			// already wide enough (a reset module regrowing), the rows are
			// reshaped in place back to front — row r moves from offset
			// r*oldWidth to the strictly larger r*newWidth, so descending
			// over rows never clobbers an unmoved one, and copy handles
			// the overlap within a row.
			ow, nw := b.ownerWidth, b.ownerWidth
			for nw <= cycle {
				nw *= 2
			}
			if cap(b.owners) >= b.nRes*nw {
				cells := b.owners[:b.nRes*nw]
				for rr := b.nRes - 1; rr >= 0; rr-- {
					row := cells[rr*nw : (rr+1)*nw]
					copy(row, cells[rr*ow:(rr+1)*ow])
					for i := ow; i < nw; i++ {
						row[i] = -1
					}
				}
				b.owners, b.ownerWidth = cells, nw
			} else {
				cells := make([]int32, b.nRes*nw)
				for rr := 0; rr < b.nRes; rr++ {
					row := cells[rr*nw : (rr+1)*nw]
					copy(row, b.owners[rr*ow:(rr+1)*ow])
					for i := ow; i < nw; i++ {
						row[i] = -1
					}
				}
				b.owners, b.ownerWidth = cells, nw
			}
		}
		c = cycle
	}
	return &b.owners[r*b.ownerWidth+c]
}

func (b *Bitvector) setOwners(op, cycle int, id int32) {
	for _, u := range b.c.uses[op] {
		*b.ownerCell(u.Resource, cycle+u.Cycle) = id
	}
}

// updateAssignFree is the usage-by-usage assign&free of update mode. The
// returned eviction list is backed by a scratch buffer owned by the
// module and is valid until the next AssignFree call — the scheduler
// consumes it immediately, so steady-state evictions allocate nothing.
func (b *Bitvector) updateAssignFree(op, cycle, id int) []int {
	evicted := b.evictScratch[:0]
	for _, u := range b.c.uses[op] {
		b.ctr.AssignFreeWork++
		t := cycle + u.Cycle
		if b.reservedBit(u.Resource, t) {
			cell := b.ownerCell(u.Resource, t)
			if other := int(*cell); other >= 0 && other != id {
				evicted = append(evicted, other)
				b.evict(other)
			}
		}
		b.setBit(u.Resource, t)
		*b.ownerCell(u.Resource, t) = int32(id)
	}
	b.evictScratch = evicted
	return evicted
}

// evict unschedules a conflicting instance usage by usage (update mode
// only); the work is charged to the enclosing AssignFree.
func (b *Bitvector) evict(id int) {
	in, ok := b.inst[id]
	if !ok {
		panic(fmt.Sprintf("query: evicting unknown instance %d", id))
	}
	for _, u := range b.c.uses[in.op] {
		b.ctr.AssignFreeWork++
		t := in.cycle + u.Cycle
		cell := b.ownerCell(u.Resource, t)
		if int(*cell) == id {
			*cell = -1
			b.clearBit(u.Resource, t)
		}
	}
	delete(b.inst, id)
}

func (b *Bitvector) reservedBit(r, cycle int) bool {
	if b.ii > 0 {
		t := b.modCycle(cycle)
		return b.mirror[t/b.k]&(1<<uint((t%b.k)*b.nRes+r)) != 0
	}
	wi := cycle / b.k
	return wi < len(b.reserved) && b.reserved[wi]&(1<<uint((cycle%b.k)*b.nRes+r)) != 0
}

func (b *Bitvector) setBit(r, cycle int) {
	if b.ii > 0 {
		b.orCycle(b.modCycle(cycle), 1<<uint(r))
		return
	}
	wi := cycle / b.k
	b.growWords(wi)
	b.reserved[wi] |= 1 << uint((cycle%b.k)*b.nRes+r)
	b.occMark(wi)
	b.rowsOrWordLin(wi, 1<<uint((cycle%b.k)*b.nRes+r))
}

func (b *Bitvector) clearBit(r, cycle int) {
	if b.ii > 0 {
		b.andNotCycle(b.modCycle(cycle), 1<<uint(r))
		return
	}
	wi := cycle / b.k
	if wi < len(b.reserved) {
		b.reserved[wi] &^= 1 << uint((cycle%b.k)*b.nRes+r)
		b.occSync(wi, b.reserved[wi])
		b.rowsAndNotWordLin(wi, 1<<uint((cycle%b.k)*b.nRes+r))
	}
}

// CheckWithAlt implements Module. With EnableFastAlt, a clean pass over
// the alternatives' unioned reservation words answers for every
// alternative at once; otherwise (or on a union conflict) alternatives
// are checked individually.
func (b *Bitvector) CheckWithAlt(origOp, cycle int) (int, bool) {
	b.ctr.CheckWithAltCalls++
	b.met.OnCheckWithAlt()
	if b.altUnion != nil || b.altUnion0 != nil {
		if op, free, decided := b.fastCheckWithAlt(origOp, cycle); decided {
			return op, free
		}
	}
	return checkWithAlt(b, b.e, origOp, cycle)
}

// Counters implements Module.
func (b *Bitvector) Counters() *Counters { return &b.ctr }

// Reset implements Module. It clears in place and keeps every backing
// buffer — the instance map's buckets, the owner grid's capacity, the
// grown reserved table — so an arena-held module resets without
// allocating (pinned by TestResetDoesNotAllocate).
func (b *Bitvector) Reset() {
	if b.ii > 0 {
		for i := range b.mirror {
			b.mirror[i] = 0
		}
	} else {
		for i := range b.reserved {
			b.reserved[i] = 0
		}
	}
	for i := range b.occ {
		b.occ[i] = 0
	}
	for i := range b.rows {
		b.rows[i] = 0
	}
	clear(b.inst)
	b.updateMode = false
	b.owners = b.owners[:0]
	b.ownerWidth = 0
	b.ctr.Reset()
}

// Scheduled returns the number of currently scheduled instances.
func (b *Bitvector) Scheduled() int { return len(b.inst) }

var _ Module = (*Bitvector)(nil)

// AltGroupOf returns the expanded-op indices implementing the given
// original operation (used by schedulers for forced placements).
func (b *Bitvector) AltGroupOf(origOp int) []int { return b.e.AltGroup[origOp] }

// StateBytes reports the reserved-table storage in bytes: the packed
// reserved words plus the owner grid once update mode has materialized
// it.
func (b *Bitvector) StateBytes() int {
	n := 8 * (len(b.reserved) + len(b.mirror))
	n += 4 * len(b.owners)
	return n
}
