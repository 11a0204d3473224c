package core

import "repro/internal/resmodel"

// AvgUsesPerOp returns the average number of resource usages per operation
// over the given reservation tables — the paper's "average resource usages /
// operation" metric, with every operation class weighted equally.
func AvgUsesPerOp(tables []resmodel.Table) float64 {
	if len(tables) == 0 {
		return 0
	}
	total := 0
	for _, t := range tables {
		total += len(t.Uses)
	}
	return float64(total) / float64(len(tables))
}

// WordUses returns the number of non-empty groups of k consecutive cycles
// in the reservation table when the cycle axis is shifted by align — the
// number of memory words a bitvector-representation check must test for a
// query at a cycle congruent to align (mod k).
func WordUses(t resmodel.Table, k, align int) int {
	if k < 1 {
		panic("core: WordUses requires k >= 1")
	}
	words := map[int]bool{}
	for _, u := range t.Uses {
		words[(u.Cycle+align)/k] = true
	}
	return len(words)
}

// AvgWordUsesPerOp returns the paper's "average word usages / operation":
// the number of non-empty k-cycle groups in each reservation table,
// averaged over all operation classes and over all k possible alignments
// between the reserved and reservation tables.
func AvgWordUsesPerOp(tables []resmodel.Table, k int) float64 {
	if len(tables) == 0 {
		return 0
	}
	total := 0
	for _, t := range tables {
		for a := 0; a < k; a++ {
			total += WordUses(t, k, a)
		}
	}
	return float64(total) / float64(len(tables)*k)
}
