package core

import (
	"fmt"
	"testing"

	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// The fuzz byte format for FuzzReducePreservesF encodes a small machine
// plus an objective. The caps keep random machines in the sparse regime
// real processors occupy (see resmodel.DefaultRandomConfig): up to 6
// resources, 6 operations with at most 2 alternatives, 8 usages per
// alternative, cycles in [0, 8). Layout:
//
//	[obj] [nRes-1] [nOps-1] then per op:
//	  [latency] [altSel] then per alternative:
//	    [nUses] then nUses × ([resource] [cycle])
//
// Every byte is reduced modulo its field's range, so all byte strings
// decode to either a valid machine or nil (too short / empty is fine:
// missing bytes read as zero).
const (
	fuzzMaxRes  = 6
	fuzzMaxOps  = 6
	fuzzMaxUses = 8
	fuzzMaxCyc  = 8
)

// byteReader yields bytes from data, returning 0 once exhausted (so
// truncated inputs still decode deterministically).
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func decodeObjective(b byte) Objective {
	if sel := int(b % 4); sel > 0 {
		return Objective{Kind: KCycleWord, K: sel}
	}
	return Objective{Kind: ResUses}
}

func decodeMachine(r *byteReader) *resmodel.Machine {
	nRes := 1 + int(r.next())%fuzzMaxRes
	nOps := 1 + int(r.next())%fuzzMaxOps
	m := &resmodel.Machine{Name: "fuzz"}
	for i := 0; i < nRes; i++ {
		m.Resources = append(m.Resources, fmt.Sprintf("r%d", i))
	}
	for o := 0; o < nOps; o++ {
		op := resmodel.Operation{Name: fmt.Sprintf("op%d", o), Latency: int(r.next() % 8)}
		nAlts := 1
		if r.next()%4 == 0 {
			nAlts = 2
		}
		for a := 0; a < nAlts; a++ {
			var t resmodel.Table
			nUses := int(r.next()) % (fuzzMaxUses + 1)
			for u := 0; u < nUses; u++ {
				t.Uses = append(t.Uses, resmodel.Usage{
					Resource: int(r.next()) % nRes,
					Cycle:    int(r.next()) % fuzzMaxCyc,
				})
			}
			t.Normalize()
			op.Alts = append(op.Alts, t)
		}
		m.Ops = append(m.Ops, op)
	}
	if err := m.Validate(); err != nil {
		// Unreachable: every decoded field is in range and Normalize
		// removes duplicate usages. Treat as a rejected input, not a bug
		// in the reduction under test.
		return nil
	}
	return m
}

// encodeMachine is the seed-side inverse of decodeMachine; ok is false
// when the machine exceeds the fuzz caps.
func encodeMachine(obj Objective, m *resmodel.Machine) ([]byte, bool) {
	if len(m.Resources) > fuzzMaxRes || len(m.Ops) > fuzzMaxOps {
		return nil, false
	}
	var out []byte
	switch obj.Kind {
	case ResUses:
		out = append(out, 0)
	case KCycleWord:
		if obj.K < 1 || obj.K > 3 {
			return nil, false
		}
		out = append(out, byte(obj.K))
	}
	out = append(out, byte(len(m.Resources)-1), byte(len(m.Ops)-1))
	for _, o := range m.Ops {
		if len(o.Alts) > 2 {
			return nil, false
		}
		altSel := byte(1)
		if len(o.Alts) == 2 {
			altSel = 0
		}
		out = append(out, byte(o.Latency%8), altSel)
		for _, a := range o.Alts {
			if len(a.Uses) > fuzzMaxUses {
				return nil, false
			}
			out = append(out, byte(len(a.Uses)))
			for _, u := range a.Uses {
				if u.Cycle >= fuzzMaxCyc {
					return nil, false
				}
				out = append(out, byte(u.Resource), byte(u.Cycle))
			}
		}
	}
	return out, true
}

// fuzzReduceSeeds returns the seed corpus of FuzzReducePreservesF.
func fuzzReduceSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	// Figure 1's example machine under both objective kinds.
	for _, obj := range []Objective{{Kind: ResUses}, {Kind: KCycleWord, K: 2}} {
		if seed, ok := encodeMachine(obj, machines.Example()); ok {
			seeds = append(seeds, seed)
		} else {
			tb.Fatal("example machine no longer fits the fuzz caps; widen them")
		}
	}
	// Table 5/6-flavoured patterns: a partially pipelined two-stage unit
	// with a shared result bus, an op with two alternatives on identical
	// units, and an empty (no-usage) op — the structures that make the
	// Cydra 5 reduction interesting, shrunk to fuzz scale.
	pipelined := resmodel.NewBuilder("pipelined")
	pipelined.Resources("stage1", "stage2", "bus")
	pipelined.Op("mult", 5).Use("stage1", 0).Use("stage1", 1).Use("stage2", 2).Use("stage2", 3).Use("bus", 5)
	pipelined.Op("add", 2).Use("stage1", 0).Use("bus", 2)
	pipelined.Op("nop", 1)
	if seed, ok := encodeMachine(Objective{Kind: ResUses}, pipelined.Build()); ok {
		seeds = append(seeds, seed)
	}
	alts := resmodel.NewBuilder("alts")
	alts.Resources("a0", "a1", "wb")
	alts.Op("add", 1).Use("a0", 0).Use("wb", 1).Alt().Use("a1", 0).Use("wb", 1)
	alts.Op("store", 0).Use("wb", 0)
	if seed, ok := encodeMachine(Objective{Kind: KCycleWord, K: 3}, alts.Build()); ok {
		seeds = append(seeds, seed)
	}
	// Raw bytes: truncated input and a dense single-resource machine.
	seeds = append(seeds, []byte{}, []byte{2, 0, 2, 1, 1, 4, 0, 0, 0, 1, 0, 2, 0, 3, 3, 1, 2, 0, 4})
	return seeds
}

// FuzzReducePreservesF fuzzes the paper's central theorem end to end:
// for any valid machine description and objective, the reduced
// description's forbidden-latency matrix equals the original's exactly
// (and the class-level reduction passes Verify, which re-derives both
// matrices). A crasher here is a reduction that silently changes
// scheduling constraints — the failure mode the paper exists to prevent.
func FuzzReducePreservesF(f *testing.F) {
	for _, seed := range fuzzReduceSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		obj := decodeObjective(r.next())
		m := decodeMachine(r)
		if m == nil {
			return
		}
		e := m.Expand()
		red := Reduce(e, obj)
		got := forbidden.Compute(red.Reduced)
		if !got.Equal(red.Matrix) {
			t.Fatalf("reduced description changes the forbidden-latency matrix:\nmachine:\n%+v\nobjective %v\ndiff: %s",
				m, obj, got.Diff(red.Matrix, e))
		}
		if err := red.Verify(); err != nil {
			t.Fatalf("reduction fails verification on fuzz machine %+v: %v", m, err)
		}
	})
}
