package query

import "math/bits"

// Bit-parallel candidate-verdict scans: the bitvector module's one
// range-scan path.
//
// Instead of probing candidate cycles one at a time, the scan reads
// across them. Alongside the packed table the module maintains rows —
// one plain cycle-bitmap per resource, bit t set iff the resource is
// busy at cycle t — and answers 64 candidates per usage with one
// unaligned 64-bit window read: for a scan starting at t0, resource r
// busy at candidate t0+i iff rows[r] bit (t0+u.Cycle)+i is set. ORing
// the window reads of all usages yields a verdict word whose bit i is
// set iff candidate t0+i conflicts; the first free candidate is one
// TrailingZeros64 of its complement.
//
// Modulo tables replicate each busy column into three images — bit p set
// iff busy(p mod II) for p in [0, 3*II) — so any window read a scan can
// issue (start s+u.Cycle <= 2*II-2, plus up to II-1 candidate offsets)
// stays in bounds without wraparound handling, the same trick the
// two-image mirror plays for single-candidate windows. Linear tables map
// bit t to cycle t directly and grow in step with the reserved words;
// reads beyond the maintained width clamp to zero, matching the
// "beyond the table is free" semantics of Check.
//
// The rows slab is redundant state derived from the same mutations that
// maintain mirror/reserved (every write goes through orCycle/andNotCycle
// or the five linear word-write sites, each of which updates rows in the
// same breath), so rows bit (p) == busy(p mod II) holds at every
// observable point — pinned by TestVerdictRowsInvariant.
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

// --- rows maintenance (called from every mirror/reserved mutation) ---

// rowsOrCycleMod marks MRT cycle t (in [0, II)) busy for every resource
// in resBits, maintaining all three images.
func (b *Bitvector) rowsOrCycleMod(t int, resBits uint64) {
	lim := 3 * b.ii
	for m := resBits; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		row := b.rows[r*b.rowW : (r+1)*b.rowW]
		for p := t; p < lim; p += b.ii {
			row[p>>6] |= 1 << uint(p&63)
		}
	}
}

func (b *Bitvector) rowsAndNotCycleMod(t int, resBits uint64) {
	lim := 3 * b.ii
	for m := resBits; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		row := b.rows[r*b.rowW : (r+1)*b.rowW]
		for p := t; p < lim; p += b.ii {
			row[p>>6] &^= 1 << uint(p&63)
		}
	}
}

// rowsOrWordLin mirrors an OR of w into linear reserved word wi: each set
// bit p of w is cycle wi*k + p/nRes of resource p%nRes.
func (b *Bitvector) rowsOrWordLin(wi int, w uint64) {
	for m := w; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		cyc := wi*b.k + p/b.nRes
		b.rows[(p%b.nRes)*b.rowW+(cyc>>6)] |= 1 << uint(cyc&63)
	}
}

func (b *Bitvector) rowsAndNotWordLin(wi int, w uint64) {
	for m := w; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		cyc := wi*b.k + p/b.nRes
		b.rows[(p%b.nRes)*b.rowW+(cyc>>6)] &^= 1 << uint(cyc&63)
	}
}

// --- verdict scans ---

// windowEmpty reports whether the whole resource window [base,
// base+maxUse] is unreserved, consulting only the occupancy summary.
// base is an MRT cycle in [0, II) for modulo tables (the window then ends
// at most at cycle 2*II-2, inside the mirror), an absolute cycle for
// linear ones (words beyond the table are trivially free).
func (b *Bitvector) windowEmpty(base, maxUse int) bool {
	loW := base / b.k
	hiW := (base + maxUse) / b.k
	if b.ii == 0 {
		if hiW >= len(b.reserved) {
			hiW = len(b.reserved) - 1
		}
		if loW > hiW {
			return true
		}
	}
	return !b.occAny(loW, hiW)
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
// Each block first consults the occupancy summary on the block's first
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
