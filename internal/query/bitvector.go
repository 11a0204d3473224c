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
// maintains them thereafter (Section 7). The owner fields are a
// cellTable, the same table Discrete keeps its whole state in. free
// stays word-based in both modes: the bitvector flags are the source of
// truth, and a stale owner entry under a cleared flag is never consulted.
type Bitvector struct {
	e        *resmodel.Expanded
	c        *compiled
	ii       int // 0 = linear
	nRes     int
	k        int // effective cycles per word
	wordBits int
	cycMask  uint64 // low nRes bits

	// packed[op][alignment], sorted by word: the table placed a cycles
	// into its base word, so a linear probe at cycle t ANDs
	// packed[op][t%k] word-aligned against the reserved words starting
	// at t/k. Linear tables grow reserved[w] (covering cycles
	// [w*k, (w+1)*k)) on demand. Modulo tables hold only alignment 0,
	// the folded table Check/Assign start from.
	packed   [][][]packedWord
	reserved []uint64

	// Modulo: mirror covers cycles [0, 2*II) (both images kept in sync)
	// so any k-cycle window starting in [0, II) is read from adjacent
	// words without wraparound. mirrorAt[t] is where MRT cycle t of the
	// mirror lives, for t in [0, 2*II): every mirror access is a cycle
	// or its second image t+II for some t < II, so no access divides
	// by k.
	mirror   []uint64
	mirrorAt []mirrorPos

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

	inst       instTable
	updateMode bool
	// own holds the owner fields: built at the first mode transition or
	// seeding, so a fresh module carries none (StateBytes).
	own *cellTable
	// evictScratch backs the slice AssignFree returns, reused across
	// calls so steady-state eviction allocates nothing.
	evictScratch []int
	ctr          Counters
	met          *moduleObs // nil while metrics are disabled
}

// mirrorPos locates one MRT cycle in the modulo mirror: the word holding
// it and the bit shift of its nRes resource flags within that word.
type mirrorPos struct {
	word  int32
	shift uint32
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
		met:     newModuleObs("bitvector"),
	}
	pt := b.c.packsFor(nRes, k)
	b.packed = pt.packed
	if ii > 0 {
		b.mirror = make([]uint64, (2*ii+k-1)/k+2)
		b.mirrorAt = make([]mirrorPos, 2*ii)
		for t := range b.mirrorAt {
			b.mirrorAt[t] = mirrorPos{word: int32(t / k), shift: uint32((t % k) * nRes)}
		}
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
		return len(b.packed[op][0])
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

// wrap folds an MRT cycle in [0, 2*II) into [0, II) with one conditional
// subtract. Every modulo write reduces its query cycle once (fold)
// and then adds offsets below II — folded usage cycles, or word and
// in-word offsets of a folded packed table — so this is the only fold
// the write path needs.
func (b *Bitvector) wrap(t int) int {
	if t >= b.ii {
		t -= b.ii
	}
	return t
}

// window reads the k-cycle window of reserved flags starting at absolute
// MRT cycle s in [0, II); its low k*nRes bits are cycles s .. s+k-1 (mod II).
func (b *Bitvector) window(s int) uint64 {
	p := b.mirrorAt[s]
	v := b.mirror[p.word] >> p.shift
	if p.shift > 0 {
		v |= b.mirror[p.word+1] << (uint32(b.k*b.nRes) - p.shift)
	}
	return v
}

// orCycle ORs one cycle's resource flags into MRT cycle t in [0, II),
// maintaining both mirror images.
func (b *Bitvector) orCycle(t int, bits uint64) {
	p, q := b.mirrorAt[t], b.mirrorAt[t+b.ii]
	b.mirror[p.word] |= bits << p.shift
	b.occMark(int(p.word))
	b.mirror[q.word] |= bits << q.shift
	b.occMark(int(q.word))
	b.rowsOrCycleMod(t, bits)
}

func (b *Bitvector) andNotCycle(t int, bits uint64) {
	p, q := b.mirrorAt[t], b.mirrorAt[t+b.ii]
	b.mirror[p.word] &^= bits << p.shift
	b.occSync(int(p.word), b.mirror[p.word])
	b.mirror[q.word] &^= bits << q.shift
	b.occSync(int(q.word), b.mirror[q.word])
	b.rowsAndNotCycleMod(t, bits)
}

// orWordMod ORs a packed word (starting at MRT cycle s, in [0, II)) into
// the mirror, cycle by cycle with wraparound.
func (b *Bitvector) orWordMod(w packedWord, s int) {
	for c := 0; c < b.k; c++ {
		bits := (w.Bits >> uint(c*b.nRes)) & b.cycMask
		if bits != 0 {
			b.orCycle(b.wrap(s+c), bits)
		}
	}
}

func (b *Bitvector) andNotWordMod(w packedWord, s int) {
	for c := 0; c < b.k; c++ {
		bits := (w.Bits >> uint(c*b.nRes)) & b.cycMask
		if bits != 0 {
			b.andNotCycle(b.wrap(s+c), bits)
		}
	}
}

// wordStart returns the MRT cycle where op's packed word w starts for a
// query at cycle jm (already reduced mod II). A folded table's words
// start below II, so the sum stays under 2*II.
func (b *Bitvector) wordStart(jm int, w packedWord) int {
	return b.wrap(jm + w.Word*b.k)
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
		jm := fold(cycle, b.ii)
		for _, w := range b.packed[op][0] {
			b.ctr.CheckWork++
			if b.window(b.wordStart(jm, w))&w.Bits != 0 {
				return false
			}
		}
		return true
	}
	mustEntry(b.ii, cycle)
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
	mustEntry(b.ii, cycle)
	w0 := b.ctr.AssignWork
	b.orTable(op, cycle, &b.ctr.AssignWork)
	b.inst.put(id, op, cycle)
	if b.updateMode {
		b.claimOwners(op, cycle, int32(id), b.inst.seq)
	}
	b.met.OnAssign(b.ctr.AssignWork - w0)
}

func (b *Bitvector) orTable(op, cycle int, work *int64) {
	if b.ii > 0 {
		jm := fold(cycle, b.ii)
		for _, w := range b.packed[op][0] {
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
		jm := fold(cycle, b.ii)
		for _, w := range b.packed[op][0] {
			*work++
			b.andNotWordMod(w, b.wordStart(jm, w))
		}
		return
	}
	// A seeded dangling instance is freed at its issue cycle before the
	// entry: the alignment and base word round toward minus infinity, and
	// words before the entry are charged but not touched.
	a := fold(cycle, b.k)
	base := (cycle - a) / b.k
	for _, w := range b.packed[op][a] {
		*work++
		wi := base + w.Word
		if wi >= 0 && wi < len(b.reserved) {
			b.reserved[wi] &^= w.Bits
			b.occSync(wi, b.reserved[wi])
			b.rowsAndNotWordLin(wi, w.Bits)
		}
	}
}

// Free implements Module: one AND-NOT per non-empty reservation word.
// cycle may lie before a linear table's entry when id is a seeded
// dangling instance.
func (b *Bitvector) Free(op, cycle, id int) {
	b.ctr.FreeCalls++
	w0 := b.ctr.FreeWork
	b.andNotTable(op, cycle, &b.ctr.FreeWork)
	b.inst.take(id)
	b.met.OnFree(b.ctr.FreeWork - w0)
}

// AssignFree implements Module.
func (b *Bitvector) AssignFree(op, cycle, id int) []int {
	b.ctr.AssignFreeCalls++
	b.mustSchedulable(op)
	mustEntry(b.ii, cycle)
	w0 := b.ctr.AssignFreeWork
	if !b.updateMode {
		if b.optimisticAssign(op, cycle) {
			b.inst.put(id, op, cycle)
			b.met.OnAssignFree(b.ctr.AssignFreeWork-w0, 0)
			return nil
		}
		// Conflict: transition from optimistic to update mode.
		b.ctr.ModeTransitions++
		b.met.OnModeTransition()
		b.enterUpdateMode()
	}
	evicted := b.updateAssignFree(op, cycle, id)
	b.inst.put(id, op, cycle)
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
		jm := fold(cycle, b.ii)
		words := b.packed[op][0]
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

// enterUpdateMode materializes the owner fields by scanning the entire
// scheduled-instance list; each reconstructed usage is one work unit,
// charged to the AssignFree that triggered the transition.
func (b *Bitvector) enterUpdateMode() {
	b.updateMode = true
	b.owners().reset()
	slots := b.inst.slots
	for i := range slots {
		if s := &slots[i]; s.key != 0 {
			b.ctr.AssignFreeWork += int64(len(b.c.uses[s.op]))
			b.claimOwners(int(s.op), s.cycle, int32(s.id()), s.seq)
		}
	}
}

// owners returns the owner table, building it on first use.
func (b *Bitvector) owners() *cellTable {
	if b.own == nil {
		b.own = newCellTable(b.nRes, b.c)
	}
	return b.own
}

// claimOwners writes id, stamped seq by the instance table, into the
// owner cells of op at cycle, except where a later assignment (a
// higher stamp) already owns one; a cell left to an instance no longer
// live is claimed. So where overlapping unchecked Assigns share a
// cell, the last one owns it whatever order the update-mode rebuild
// walks the table in — as Discrete's overwriting Assign leaves it —
// and an eviction never depends on the table's layout. Schedulers
// never overlap instances, so the rebuild's claims find their cells
// unowned.
func (b *Bitvector) claimOwners(op, cycle int, id int32, seq uint64) {
	base := b.own.fold(cycle)
	for _, u := range b.c.uses[op] {
		cell := b.own.cell(u.Resource, b.own.at(base, u.Cycle))
		if cell != nil && (*cell < 0 || b.inst.seqOf(int(*cell)) < seq) {
			*cell = id
		}
	}
}

// updateAssignFree is the usage-by-usage assign&free of update mode. The
// returned eviction list is backed by a scratch buffer owned by the
// module and is valid until the next AssignFree call — the scheduler
// consumes it immediately, so steady-state evictions allocate nothing.
func (b *Bitvector) updateAssignFree(op, cycle, id int) []int {
	evicted := b.evictScratch[:0]
	base := b.own.fold(cycle)
	for _, u := range b.c.uses[op] {
		b.ctr.AssignFreeWork++
		t := b.own.at(base, u.Cycle)
		cell := b.own.cell(u.Resource, t)
		if b.busyAt(u.Resource, t) {
			if other := int(*cell); other >= 0 && other != id {
				evicted = append(evicted, other)
				b.evict(other)
			}
		}
		if b.ii > 0 {
			b.orCycle(t, 1<<uint(u.Resource))
		} else {
			b.setBit(u.Resource, t)
		}
		*cell = int32(id)
	}
	b.evictScratch = evicted
	return evicted
}

// evict unschedules a conflicting instance usage by usage (update mode
// only); the work is charged to the enclosing AssignFree. Every usage is
// one unit, including a dangling instance's usages before the entry,
// whose cells the owner table skips.
func (b *Bitvector) evict(id int) {
	in, ok := b.inst.take(id)
	if !ok {
		panic(fmt.Sprintf("query: evicting unknown instance %d", id))
	}
	base := b.own.fold(in.cycle)
	for _, u := range b.c.uses[in.op] {
		b.ctr.AssignFreeWork++
		if t := b.own.at(base, u.Cycle); b.own.release(u.Resource, t, int32(id)) {
			if b.ii > 0 {
				b.andNotCycle(t, 1<<uint(u.Resource))
			} else {
				b.clearBit(u.Resource, t)
			}
		}
	}
}

// busyAt reads the reserved flag of resource r at owner-table column t
// (an MRT cycle in [0, II), or a linear cycle at or after the entry)
// from the resource's verdict row, which covers every cycle the packed
// words do, with no division.
func (b *Bitvector) busyAt(r, t int) bool {
	w := t >> 6
	return w < b.rowW && b.rows[r*b.rowW+w]>>uint(t&63)&1 != 0
}

// setBit and clearBit flip one flag of a linear table at a cycle at or
// after the entry; the modulo write path goes through orCycle and
// andNotCycle.
func (b *Bitvector) setBit(r, cycle int) {
	wi, bit := cycle/b.k, uint64(1)<<uint((cycle%b.k)*b.nRes+r)
	b.growWords(wi)
	b.reserved[wi] |= bit
	b.occMark(wi)
	b.rowsOrWordLin(wi, bit)
}

func (b *Bitvector) clearBit(r, cycle int) {
	if wi, bit := cycle/b.k, uint64(1)<<uint((cycle%b.k)*b.nRes+r); wi < len(b.reserved) {
		b.reserved[wi] &^= bit
		b.occSync(wi, b.reserved[wi])
		b.rowsAndNotWordLin(wi, bit)
	}
}

// reservedBit reads the reserved flag of resource r at cycle (any cycle
// on a modulo table) from the packed words. The modulo write path reads
// its busy flags from the verdict rows instead; on modulo tables this
// accessor is what the rows are verified against.
func (b *Bitvector) reservedBit(r, cycle int) bool {
	if b.ii > 0 {
		p := b.mirrorAt[fold(cycle, b.ii)]
		return b.mirror[p.word]&(1<<(p.shift+uint32(r))) != 0
	}
	wi := cycle / b.k
	return wi < len(b.reserved) && b.reserved[wi]&(1<<uint((cycle%b.k)*b.nRes+r)) != 0
}

// CheckWithAlt implements Module: alternatives are checked individually,
// in group order.
func (b *Bitvector) CheckWithAlt(origOp, cycle int) (int, bool) {
	b.ctr.CheckWithAltCalls++
	b.met.OnCheckWithAlt()
	return checkWithAlt(b, b.e, origOp, cycle)
}

// Counters implements Module.
func (b *Bitvector) Counters() *Counters { return &b.ctr }

// Reset implements Module. It clears in place and keeps every backing
// buffer — the instance table's slots, the owner table, the grown
// reserved table — so an arena-held module resets without allocating
// (pinned by TestResetDoesNotAllocate). The owner table is left as it
// is: the next mode transition or seeding clears it before use.
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
	b.inst.clear()
	b.updateMode = false
	b.ctr.Reset()
}

// Scheduled returns the number of currently scheduled instances.
func (b *Bitvector) Scheduled() int { return b.inst.len() }

var _ Module = (*Bitvector)(nil)

// AltGroupOf returns the expanded-op indices implementing the given
// original operation (used by schedulers for forced placements).
func (b *Bitvector) AltGroupOf(origOp int) []int { return b.e.AltGroup[origOp] }

// StateBytes reports the reserved-table storage in bytes: the packed
// reserved words plus the owner table once update mode or seeding has
// built it.
func (b *Bitvector) StateBytes() int {
	n := 8 * (len(b.reserved) + len(b.mirror))
	if b.own != nil {
		n += b.own.bytes()
	}
	return n
}
