package loopgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ddg"
	"repro/internal/resmodel"
)

// Stratum is one cell of a stratified benchmark: a loop-size
// distribution (lognormal, clipped), a recurrence density, and a
// memory-operation density. Memory operations (loads, stores, address
// updates) are the Cydra 5 operations with dual-unit alternatives, so
// MemNum/MemDen is the stream's alternative-mix axis.
type Stratum struct {
	// Name prefixes the loops of this stratum ("<name>.<index>").
	Name string
	// Weight is the stratum's share of the corpus; the stream interleaves
	// strata by highest-averages apportionment, so any prefix of the
	// stream is itself approximately weight-proportional.
	Weight int
	// MeanOps/SigmaOps/MinOps/MaxOps shape the size distribution exactly
	// like the corresponding Config fields.
	MeanOps  float64
	SigmaOps float64
	MinOps   int
	MaxOps   int
	// RecurrenceProb is the per-loop probability of a loop-carried
	// reduction.
	RecurrenceProb float64
	// MemNum/MemDen is the fraction of the op budget spent on address
	// streams (and again on stores); Generate's historical value is 1/10.
	MemNum, MemDen int
}

// Strata configures a streamed stratified corpus: Loops total loops
// drawn from the given strata, fully determined by Seed.
type Strata struct {
	Loops  int
	Seed   int64
	Strata []Stratum
}

// DefaultStrata returns the default stratification for a corpus of the
// given size: a 3 (size) x 2 (recurrence density) x 2 (memory mix) grid
// with the paper-calibrated center cell weighted heaviest.
func DefaultStrata(loops int) Strata {
	sizes := []struct {
		name  string
		mean  float64
		sigma float64
		min   int
		max   int
	}{
		{"sm", 1.6, 0.6, 2, 24},
		{"md", 2.42, 0.85, 2, 161}, // Table 5 calibration (Default())
		{"lg", 3.4, 0.5, 24, 161},
	}
	recs := []struct {
		name string
		p    float64
	}{
		{"lo", 0.15},
		{"hi", 0.7},
	}
	mems := []struct {
		name     string
		num, den int
	}{
		{"m10", 1, 10}, // the paper mix (Generate's historical density)
		{"m6", 1, 6},   // memory-heavy: more dual-alternative operations
	}
	st := Strata{Loops: loops, Seed: 19960521}
	for _, sz := range sizes {
		for _, rc := range recs {
			for _, mm := range mems {
				w := 1
				if sz.name == "md" && rc.name == "lo" && mm.name == "m10" {
					w = 4 // the Table 5 center cell dominates, like the real corpus
				}
				st.Strata = append(st.Strata, Stratum{
					Name:           sz.name + rc.name + mm.name,
					Weight:         w,
					MeanOps:        sz.mean,
					SigmaOps:       sz.sigma,
					MinOps:         sz.min,
					MaxOps:         sz.max,
					RecurrenceProb: rc.p,
					MemNum:         mm.num,
					MemDen:         mm.den,
				})
			}
		}
	}
	return st
}

func (st *Strata) validate() error {
	if st.Loops < 0 {
		return fmt.Errorf("loopgen: negative loop count %d", st.Loops)
	}
	if len(st.Strata) == 0 {
		return fmt.Errorf("loopgen: no strata")
	}
	for i, s := range st.Strata {
		if s.Weight < 1 {
			return fmt.Errorf("loopgen: stratum %d (%s): weight %d < 1", i, s.Name, s.Weight)
		}
		if s.MinOps < 2 || s.MaxOps < s.MinOps {
			return fmt.Errorf("loopgen: stratum %d (%s): size bounds [%d, %d] invalid (need 2 <= min <= max)",
				i, s.Name, s.MinOps, s.MaxOps)
		}
		if s.MemNum < 0 || s.MemDen < 1 {
			return fmt.Errorf("loopgen: stratum %d (%s): memory mix %d/%d invalid",
				i, s.Name, s.MemNum, s.MemDen)
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer used
// to derive an independent per-loop seed from (corpus seed, stratum,
// index). Any loop of the corpus can therefore be regenerated in
// isolation — random access, and race-free generation of different
// strata from different workers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// loopSeed derives the rng seed of loop k of stratum si.
func (st *Strata) loopSeed(si, k int) int64 {
	return int64(splitmix64(splitmix64(uint64(st.Seed)) ^ uint64(si)<<40 ^ uint64(k)))
}

// pickStratum returns the stratum the next loop is drawn from, given the
// per-stratum counts so far: the highest-averages (D'Hondt) rule — the
// stratum maximizing Weight/(count+1), lowest index on ties. The rule is
// deterministic and stateless in everything but the counts.
func (st *Strata) pickStratum(counts []int) int {
	best := 0
	for i := 1; i < len(counts); i++ {
		if st.Strata[i].Weight*(counts[best]+1) > st.Strata[best].Weight*(counts[i]+1) {
			best = i
		}
	}
	return best
}

// Stream yields the corpus one loop at a time, so a 10^5..10^6-loop
// corpus is scheduled in flat memory: the caller owns each returned
// graph and the stream retains nothing. Each loop is generated from its
// own seed — the retained rand.Rand is reseeded per loop — so the
// stream's output is a pure function of the Strata value and can be
// reproduced in batch (GenerateStrata).
type Stream struct {
	o       opset
	st      Strata
	counts  []int
	emitted int
	rng     *rand.Rand
}

// NewStream validates the configuration against the machine and returns
// a stream positioned at the first loop.
func NewStream(m *resmodel.Machine, st Strata) (*Stream, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	o, err := resolve(m)
	if err != nil {
		return nil, err
	}
	return &Stream{
		o:      o,
		st:     st,
		counts: make([]int, len(st.Strata)),
		rng:    newFastRand(0),
	}, nil
}

// Loops returns the total number of loops the stream yields.
func (s *Stream) Loops() int { return s.st.Loops }

// Next returns the next loop of the corpus, or ok=false when the corpus
// is exhausted. The returned graph is freshly built and owned by the
// caller.
func (s *Stream) Next() (g *ddg.Graph, ok bool) {
	if s.emitted >= s.st.Loops {
		return nil, false
	}
	si := s.st.pickStratum(s.counts)
	k := s.counts[si]
	s.counts[si]++
	s.emitted++
	return genStratumLoop(s.rng, s.o, &s.st, si, k), true
}

// genStratumLoop generates loop k of stratum si; rng is reseeded, so
// only its allocation is reused — the output depends on (st, si, k)
// alone.
func genStratumLoop(rng *rand.Rand, o opset, st *Strata, si, k int) *ddg.Graph {
	rng.Seed(st.loopSeed(si, k))
	sp := &st.Strata[si]
	size := sp.MinOps + int(math.Exp(rng.NormFloat64()*sp.SigmaOps+sp.MeanOps))
	if size > sp.MaxOps {
		size = sp.MaxOps
	}
	g := genLoop(rng, o, fmt.Sprintf("%s.%06d", sp.Name, k), size, profile{
		recProb: sp.RecurrenceProb, memNum: sp.MemNum, memDen: sp.MemDen,
	})
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("loopgen: stratum %s loop %d invalid: %v", sp.Name, k, err))
	}
	return g
}

// GenerateStrata materializes the whole streamed corpus as a slice —
// the batch equivalent of draining a Stream, byte-identical to it
// (pinned by the stream/batch equivalence test).
func GenerateStrata(m *resmodel.Machine, st Strata) ([]*ddg.Graph, error) {
	s, err := NewStream(m, st)
	if err != nil {
		return nil, err
	}
	out := make([]*ddg.Graph, 0, st.Loops)
	for {
		g, ok := s.Next()
		if !ok {
			return out, nil
		}
		out = append(out, g)
	}
}
