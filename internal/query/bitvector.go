package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// Bitvector is the bitvector-representation reserved table. Section 7
// packs the per-cycle resource flags K cycle-bitvectors per memory word,
// so one AND-and-test detects contentions for K consecutive cycles, and
// Table 6 counts one work unit per non-empty word handled. With II > 0 it
// is a Modulo Reservation Table.
//
// The flags live in one place, the verdict rows (verdict.go): one cycle
// bitmap per resource. The packed words exist only as the read-only
// charge table (compile.go), which tells each call how its usages group
// into words: Check tests one word's usages against the rows and charges
// one unit per word up to the first conflicting one, and the writes set
// or clear row bits a word at a time and charge one unit per word. So
// answers and work units are the packed table's, without a packed copy
// of the flags.
//
// assign&free starts in optimistic mode, carrying no operation-owner
// fields; the first conflict forces a transition to update mode, which
// scans the scheduled-instance list to reconstruct the owner fields and
// maintains them thereafter (Section 7). The owner fields are a
// cellTable, the same table Discrete keeps its whole state in. In update
// mode a write clears a flag only where the instance owns the cell, as
// Discrete does; in optimistic mode Free clears every flag of its op.
type Bitvector struct {
	e    *resmodel.Expanded
	c    *compiled
	ct   *chargeTable
	ii   int // 0 = linear
	nRes int
	k    int // effective cycles per word
	// linWords is a linear table's width in words of k cycles: it starts
	// at the longest span plus 16 cycles and doubles to cover every
	// written cycle. Check treats a word at or beyond it as free.
	linWords int

	// rows holds nRes+1 cycle bitmaps of rowW words each, flat. Row r < nRes
	// is resource r: bit t is set iff r is busy at cycle t. Modulo tables
	// keep three images (bit p == busy(p mod II) for p in [0, 3*II)) so a
	// query cycle folded once plus usage and candidate offsets never
	// wraps; linear tables map bit t to cycle t. Row nRes is the any-busy
	// summary: bit t is set iff some resource is busy at t, which lets
	// range scans prove a whole word window free with a word read or two.
	// nBusy[t] counts the resources busy at column t (an MRT cycle in
	// [0, II), or a linear cycle), so a clear updates the summary in O(1).
	// altVerdict is the FirstFreeWithAlt scratch holding one verdict word
	// per alternative (sized for the largest group at construction, so
	// scans allocate nothing).
	rows       []uint64
	rowW       int
	nBusy      []uint8
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
		e: e, c: compileFor(e, ii), ii: ii, nRes: nRes, k: k,
		met: newModuleObs("bitvector"),
	}
	b.ct = b.c.chargesFor(k)
	if ii > 0 {
		b.nBusy = make([]uint8, ii)
		b.rowW = (3*ii+63)/64 + 1
	} else {
		b.linWords = (b.c.maxSpan()+16)/k + 2
		b.nBusy = make([]uint8, b.linWords*k)
		b.rowW = (b.linWords*k+63)/64 + 1
	}
	b.rows = make([]uint64, (nRes+1)*b.rowW)
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

// II returns the initiation interval (0 for a linear table).
func (b *Bitvector) II() int { return b.ii }

// K returns the effective number of cycles per word.
func (b *Bitvector) K() int { return b.k }

// Schedulable implements Module.
func (b *Bitvector) Schedulable(op int) bool { return !b.c.selfConf[op] }

// placed returns op's charge-table words for a query at cycle, the
// cycle's base word and the column its usage offsets add to. On a Modulo
// Reservation Table that column is the cycle folded into [0, II), so
// column plus offset stays below 2*II, inside the rows' images; only
// alignment 0 exists and the base word is unused. On a linear table the
// alignment and base word round toward minus infinity, so a seeded
// dangling instance is freed at its negative issue cycle.
func (b *Bitvector) placed(op, cycle int) ([]chargeWord, int, int) {
	if b.ii > 0 {
		return b.ct.words[op][0], 0, fold(cycle, b.ii)
	}
	a := fold(cycle, b.k)
	return b.ct.words[op][a], (cycle - a) / b.k, cycle
}

// conflicts reports whether any of uses is busy with its offsets added to
// column t0.
func (b *Bitvector) conflicts(uses []resmodel.Usage, t0 int) bool {
	for _, u := range uses {
		if b.busyAt(u.Resource, t0+u.Cycle) {
			return true
		}
	}
	return false
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
	mustEntry(b.ii, cycle)
	words, base, t0 := b.placed(op, cycle)
	uses := b.ct.byCycle[op]
	for _, w := range words {
		b.ctr.CheckWork++
		if b.ii == 0 && base+int(w.word) >= b.linWords {
			// Words are sorted, so this word and every later one lie
			// beyond the reserved table and are trivially free. The
			// comparison that discovered that is the one work unit
			// charged above — mirroring the modulo path, where every
			// probed word costs exactly one unit.
			break
		}
		if b.conflicts(uses[w.lo:w.hi], t0) {
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
	words, _, t0 := b.placed(op, cycle)
	uses := b.ct.byCycle[op]
	for _, w := range words {
		b.ctr.AssignWork++
		for _, u := range uses[w.lo:w.hi] {
			b.set(u.Resource, t0+u.Cycle)
		}
	}
	b.inst.put(id, op, cycle)
	if b.updateMode {
		b.claimOwners(op, cycle, int32(id), b.inst.seq)
	}
	b.met.OnAssign(b.ctr.AssignWork - w0)
}

// Free implements Module: one AND-NOT per non-empty reservation word.
// cycle may lie before a linear table's entry when id is a seeded
// dangling instance; its usages there are charged with their word but
// never touched. In update mode only the cells id owns are cleared, so
// an instance sharing a cell with id keeps it busy, as on Discrete.
func (b *Bitvector) Free(op, cycle, id int) {
	b.ctr.FreeCalls++
	w0 := b.ctr.FreeWork
	words, _, t0 := b.placed(op, cycle)
	uses := b.ct.byCycle[op]
	for _, w := range words {
		b.ctr.FreeWork++
		for _, u := range uses[w.lo:w.hi] {
			switch t := t0 + u.Cycle; {
			case t < 0: // before a linear table's entry: never written
			case b.updateMode:
				if c := b.own.at(t0, u.Cycle); b.own.release(u.Resource, c, int32(id)) {
					b.clear(u.Resource, c)
				}
			default:
				b.clear(u.Resource, t)
			}
		}
	}
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
	words, _, t0 := b.placed(op, cycle)
	uses := b.ct.byCycle[op]
	for i, w := range words {
		b.ctr.AssignFreeWork++
		if b.conflicts(uses[w.lo:w.hi], t0) {
			for _, v := range words[:i] {
				b.ctr.AssignFreeWork++
				for _, u := range uses[v.lo:v.hi] {
					b.clear(u.Resource, t0+u.Cycle)
				}
			}
			return false
		}
		for _, u := range uses[w.lo:w.hi] {
			b.set(u.Resource, t0+u.Cycle)
		}
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
		b.set(u.Resource, t)
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
			b.clear(u.Resource, t)
		}
	}
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
// linear rows — so an arena-held module resets without allocating
// (pinned by TestResetDoesNotAllocate). The owner table is left as it
// is: the next mode transition or seeding clears it before use.
func (b *Bitvector) Reset() {
	clear(b.rows)
	clear(b.nBusy)
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

// StateBytes reports the reserved-table storage in bytes as the paper
// packs it: one 64-bit word per k cycles — ceil(II/k) words on a Modulo
// Reservation Table, the grown width on a linear one — plus the owner
// table once update mode or seeding has built it.
func (b *Bitvector) StateBytes() int {
	words := b.linWords
	if b.ii > 0 {
		words = (b.ii + b.k - 1) / b.k
	}
	n := 8 * words
	if b.own != nil {
		n += b.own.bytes()
	}
	return n
}
