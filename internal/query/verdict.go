package query

import "math/bits"

// The verdict rows: the bitvector module's flag state and its one
// range-scan path.
//
// rows holds one plain cycle-bitmap per resource, bit t set iff the
// resource is busy at cycle t, and nothing else holds the flags. Check
// and the writes reach them usage by usage, grouped by the charge
// table's packed words so work is counted per word (bitvector.go). The
// range scans read across them: instead of probing candidate cycles one
// at a time, a scan answers 64 candidates per usage with one unaligned
// 64-bit window read. For a scan starting at t0, resource r is busy at
// candidate t0+i iff rows[r] bit (t0+u.Cycle)+i is set. ORing the window
// reads of all usages yields a verdict word whose bit i is set iff
// candidate t0+i conflicts; the first free candidate is one
// TrailingZeros64 of its complement.
//
// Modulo tables replicate each busy column into three images — bit p set
// iff busy(p mod II) for p in [0, 3*II) — so any read a query can issue
// (a folded cycle plus a folded usage offset stays below 2*II-1, plus up
// to II-1 candidate offsets for a scan) stays in bounds without
// wraparound handling. Linear tables map bit t to cycle t directly and
// grow with linWords; reads beyond the maintained width clamp to zero,
// matching the "beyond the table is free" semantics of Check.
//
// Every flag write goes through set or clear, which keep all images, the
// per-column busy count and the any-busy summary row in step — pinned
// against a Discrete twin by TestVerdictRowsInvariant and against the
// OR of the rows by checkOccInvariant.
//
// Accounting: the verdict decides where to stop, the centralized
// RangeProbes/RangeProbesAlt arithmetic decides what to charge, so
// FirstFreeCycles and schedules are byte-identical to the naive
// per-cycle loop. FirstFreeWork remains the scan's own measured work:
// one unit per usage-window read, one per self-conflict discovery, one
// per occupancy-summary skip — and FirstFreeVerdictWords counts the
// verdict words built.

// maskN returns a mask of the low n bits, n in [1, 64].
func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// rowWindow reads 64 consecutive cycle bits of resource r's row starting
// at bit offset o: bit i of the result is row bit o+i. Offsets beyond the
// maintained width read zero (free).
func (b *Bitvector) rowWindow(r, o int) uint64 {
	row := b.rows[r*b.rowW : (r+1)*b.rowW]
	wi, sh := o>>6, uint(o&63)
	if wi >= len(row) {
		return 0
	}
	v := row[wi] >> sh
	if sh != 0 && wi+1 < len(row) {
		v |= row[wi+1] << (64 - sh)
	}
	return v
}

// --- rows maintenance: every flag write ---

// busyAt reads the flag of resource r at cycle t: an MRT cycle in
// [0, 3*II), or a linear cycle at or after the entry. Cycles beyond the
// maintained width read free.
func (b *Bitvector) busyAt(r, t int) bool {
	w := t >> 6
	return w < b.rowW && b.rows[r*b.rowW+w]>>uint(t&63)&1 != 0
}

// set marks resource r busy at cycle t, and clear marks it free: t is an
// MRT cycle in [0, 2*II), or a linear cycle at or after the entry, and a
// linear set grows the table to cover it. Both are idempotent, and the
// any-busy summary row flips only when a column's busy count moves
// between 0 and 1.
func (b *Bitvector) set(r, t int) {
	if b.ii > 0 {
		if t >= b.ii {
			t -= b.ii
		}
	} else if t >= b.linWords*b.k {
		b.grow(t)
	}
	if b.busyAt(r, t) {
		return
	}
	b.flip(r, t)
	if b.nBusy[t]++; b.nBusy[t] == 1 {
		b.flip(b.nRes, t)
	}
}

func (b *Bitvector) clear(r, t int) {
	if b.ii > 0 && t >= b.ii {
		t -= b.ii
	}
	if !b.busyAt(r, t) {
		return
	}
	b.flip(r, t)
	if b.nBusy[t]--; b.nBusy[t] == 0 {
		b.flip(b.nRes, t)
	}
}

// flip toggles row r's bit for column t (an MRT cycle in [0, II), or a
// linear cycle) in every image.
func (b *Bitvector) flip(r, t int) {
	row := b.rows[r*b.rowW : (r+1)*b.rowW]
	if b.ii == 0 {
		row[t>>6] ^= 1 << uint(t&63)
		return
	}
	for p := t; p < 3*b.ii; p += b.ii {
		row[p>>6] ^= 1 << uint(p&63)
	}
}

// grow doubles a linear table's width in words until it covers cycle t,
// extending the busy counts and re-laying every row out at the new
// stride when the rows need more words.
func (b *Bitvector) grow(t int) {
	n := b.linWords
	for n*b.k <= t {
		n *= 2
	}
	b.linWords = n
	nBusy := make([]uint8, n*b.k)
	copy(nBusy, b.nBusy)
	b.nBusy = nBusy
	if need := (n*b.k+63)/64 + 1; need > b.rowW {
		rows := make([]uint64, (b.nRes+1)*need)
		for r := 0; r <= b.nRes; r++ {
			copy(rows[r*need:], b.rows[r*b.rowW:(r+1)*b.rowW])
		}
		b.rows, b.rowW = rows, need
	}
}

// anyBusy reports whether any cycle in [lo, hi] is busy on some
// resource, reading only the summary row.
func (b *Bitvector) anyBusy(lo, hi int) bool {
	row := b.rows[b.nRes*b.rowW : (b.nRes+1)*b.rowW]
	w1, w2 := lo>>6, hi>>6
	headMask := ^uint64(0) << uint(lo&63)
	tailMask := ^uint64(0) >> uint(63-(hi&63))
	if w1 == w2 {
		return row[w1]&headMask&tailMask != 0
	}
	if row[w1]&headMask != 0 {
		return true
	}
	for w := w1 + 1; w < w2; w++ {
		if row[w] != 0 {
			return true
		}
	}
	return row[w2]&tailMask != 0
}

// --- verdict scans ---

// windowEmpty reports whether the whole resource window [base,
// base+maxUse] lies in packed words holding no busy cycle, consulting
// only the summary row. The decision is the packed table's, word by
// word, so the skips Table 6 sees are the packed representation's: every
// cycle of the words base and base+maxUse fall in counts, up to cycle
// 2*II-1 on a modulo table (base is an MRT cycle in [0, II)) and up to
// the table's width on a linear one (words beyond it are trivially free).
func (b *Bitvector) windowEmpty(base, maxUse int) bool {
	lo := base / b.k * b.k
	hi := ((base+maxUse)/b.k+1)*b.k - 1
	lim := 2*b.ii - 1
	if b.ii == 0 {
		lim = b.linWords*b.k - 1
	}
	if hi > lim {
		hi = lim
	}
	return lo > hi || !b.anyBusy(lo, hi)
}

// flushVerdict credits a verdict scan's locally accumulated counters.
func (b *Bitvector) flushVerdict(work, words, skips int64) {
	b.ctr.FirstFreeWork += work
	b.ctr.FirstFreeVerdictWords += words
	b.ctr.FirstFreeSkips += skips
}

// verdictFree returns the offset in [0, L) of the first candidate cycle
// t0+i at which op fits, or -1, processing candidates 64 per verdict
// word. Callers guarantee op is not self-conflicting and (for modulo
// tables) L <= II, so every row offset a block reads stays under 3*II.
//
// Each block first consults the summary row on the block's first
// candidate window (ops with at least two usages): an all-zero window
// proves that candidate free, so the block answers its first candidate
// for one work unit — strictly cheaper than the >= 2 window reads the
// verdict would cost — and counts a FirstFreeSkips.
// Otherwise one 64-bit window read per usage builds the verdict word.
func (b *Bitvector) verdictFree(op, t0, L int) int {
	uses := b.c.uses[op]
	maxUse := b.c.maxUse[op]
	var work, vw, skips int64
	found := -1
	s := t0
	if b.ii > 0 {
		s = fold(t0, b.ii)
	}
	for blk := 0; blk < L; blk += 64 {
		n := L - blk
		if n > 64 {
			n = 64
		}
		if len(uses) >= 2 && b.windowEmpty(s, maxUse) {
			work++
			skips++
			found = blk
			break
		}
		var v uint64
		for _, u := range uses {
			work++
			v |= b.rowWindow(u.Resource, s+u.Cycle)
		}
		vw++
		if free := ^v & maskN(n); free != 0 {
			found = blk + bits.TrailingZeros64(free)
			break
		}
		// Multi-block scans only occur for L > 64, i.e. linear tables or
		// II > 64, so a single conditional subtraction re-normalizes s.
		if s += n; b.ii > 0 && s >= b.ii {
			s -= b.ii
		}
	}
	b.flushVerdict(work, vw, skips)
	return found
}

// verdictAltChunk answers one chunk of FirstFreeWithAlt: n candidate
// cycles starting at t0, over the whole alternative group at once. Each
// alternative contributes a verdict word; a clear bit 0 ends the search
// immediately (every earlier alternative conflicts at the chunk's first
// candidate, so this is the naive answer). Otherwise the AND of the
// verdicts locates the earliest cycle where any alternative fits, and the
// per-alternative words — kept in the module-owned altVerdict scratch —
// replay the naive tie-break: first free alternative in group order at
// that cycle. Callers guarantee n <= 64 and (modulo) n <= II.
func (b *Bitvector) verdictAltChunk(group []int, t0, n int) (int, int, int, bool) {
	mask := maskN(n)
	var work, vw, skips int64
	combined := mask
	scratch := b.altVerdict[:len(group)]
	base := t0
	if b.ii > 0 {
		base = fold(t0, b.ii)
	}
	for ai, o := range group {
		if b.c.selfConf[o] {
			work++ // the probe that discovers the fold
			scratch[ai] = ^uint64(0)
			continue
		}
		uses := b.c.uses[o]
		if len(uses) >= 2 && b.windowEmpty(base, b.c.maxUse[o]) {
			work++
			skips++
			b.flushVerdict(work, vw, skips)
			return o, 0, ai, true
		}
		var v uint64
		for _, u := range uses {
			work++
			v |= b.rowWindow(u.Resource, base+u.Cycle)
		}
		vw++
		if v&1 == 0 {
			b.flushVerdict(work, vw, skips)
			return o, 0, ai, true
		}
		scratch[ai] = v
		combined &= v
	}
	b.flushVerdict(work, vw, skips)
	if free := ^combined & mask; free != 0 {
		i := bits.TrailingZeros64(free)
		for ai, o := range group {
			if scratch[ai]&(1<<uint(i)) == 0 {
				return o, i, ai, true
			}
		}
	}
	return -1, 0, 0, false
}
