package query

import (
	"fmt"

	"repro/internal/resmodel"
)

// This file is the representation-selection chokepoint. The rule is
// fixed: "auto" serves the packed bitvector whenever the description
// fits the word at the requested packing, and the discrete table
// otherwise (more resources than the word has bits, or a client k that
// does not fit). Every backend returns identical answers, so the rule
// only decides the work per check; README "Query backends" records the
// measurements behind it.

// Policy configures Select. Representation "" and "auto" both mean the
// fixed auto rule; "discrete" or "bitvector" pins that backend.
type Policy struct {
	Representation string
	II             int
	// K is the bitvector packing in cycles per word (0 = the densest
	// packing the word admits); WordBits is 32 or 64 (0 = 64).
	K        int
	WordBits int
}

// Selection is Select's result: a fresh module and the name of the
// backend serving it.
type Selection struct {
	Module  Module
	Backend string
}

// Select builds a fresh query module for e under p. A pinned
// representation is built directly and reports its construction error;
// "auto" (or "") never fails.
func Select(e *resmodel.Expanded, p Policy) (*Selection, error) {
	switch p.Representation {
	case "discrete":
		return &Selection{Module: NewDiscrete(e, p.II), Backend: "discrete"}, nil
	case "bitvector":
		b, err := p.bitvector(e)
		if err != nil {
			return nil, err
		}
		return &Selection{Module: b, Backend: "bitvector"}, nil
	case "", "auto":
		if b, err := p.bitvector(e); err == nil {
			return &Selection{Module: b, Backend: "bitvector"}, nil
		}
		return &Selection{Module: NewDiscrete(e, p.II), Backend: "discrete"}, nil
	}
	return nil, fmt.Errorf("query: unknown backend %q (want discrete, bitvector or auto)", p.Representation)
}

// bitvector builds the policy's bitvector module, applying the word and
// packing defaults.
func (p Policy) bitvector(e *resmodel.Expanded) (*Bitvector, error) {
	wordBits := p.WordBits
	if wordBits == 0 {
		wordBits = 64
	}
	k := p.K
	if k == 0 {
		k = MaxCyclesPerWord(len(e.Resources), wordBits)
	}
	return NewBitvector(e, k, wordBits, p.II)
}
