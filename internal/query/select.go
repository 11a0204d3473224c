package query

import (
	"fmt"
	"sync"

	"repro/internal/resmodel"
)

// This file is the representation-selection layer: a small registry of
// named module backends plus a measured, deterministic chooser. The
// paper argues (§2) that the reduced reservation tables beat the
// forbidden-latency automaton on description size while preserving
// constraints; the selector turns that comparison into a per-machine
// decision by running the same short synthetic probe trace on every
// feasible backend and picking the one with the lowest counted work per
// basic-function call (the paper's work per check). Costs come from the
// modules' own work counters — never wall-clock — so the choice is
// identical on every host, at every worker count, and across reruns.

// BackendOpts carries the construction knobs a backend may consume.
// Zero values mean "backend default" (wordBits 64, k packed to
// MaxCyclesPerWord, the automaton's default state budget).
type BackendOpts struct {
	II        int
	K         int
	WordBits  int
	MaxStates int
}

// BackendFactory builds a fresh module over e, or reports why this
// backend cannot serve the description (state budget exceeded, packing
// constraint violated, ...).
type BackendFactory func(e *resmodel.Expanded, o BackendOpts) (Module, error)

var (
	backendMu sync.RWMutex
	backends  = map[string]BackendFactory{}
)

// RegisterBackend installs a named module backend. The discrete and
// bitvector backends register here; the automaton package registers
// "fsa" from its init, which keeps the package dependency one-way
// (automaton imports query) while still letting Select reach it.
func RegisterBackend(name string, f BackendFactory) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("query: duplicate backend %q", name))
	}
	backends[name] = f
}

// LookupBackend returns the factory registered under name.
func LookupBackend(name string) (BackendFactory, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	f, ok := backends[name]
	return f, ok
}

func init() {
	RegisterBackend("discrete", func(e *resmodel.Expanded, o BackendOpts) (Module, error) {
		return NewDiscrete(e, o.II), nil
	})
	RegisterBackend("bitvector", func(e *resmodel.Expanded, o BackendOpts) (Module, error) {
		wordBits := o.WordBits
		if wordBits == 0 {
			wordBits = 64
		}
		k := o.K
		if k == 0 {
			k = MaxCyclesPerWord(len(e.Resources), wordBits)
		}
		return NewBitvector(e, k, wordBits, o.II)
	})
}

// DefaultMaxFSAStates bounds the total interned forward+reverse states
// the selector will admit for the FSA backend. 2^16 keeps the small
// real machines (the paper's MIPS and PA-RISC reductions, the worked
// example) eligible while deterministically excluding the ones whose
// automata blow up (the Cydra 5 exceeds 2^20 states in every variant).
const DefaultMaxFSAStates = 1 << 16

// Policy configures Select. Representation "" and "auto" both mean
// measured auto-selection; naming a backend pins it.
type Policy struct {
	Representation string
	II             int
	K              int
	WordBits       int
	// Dangling declares that the caller will seed dangling windows
	// (DanglingSeeder). The FSA pair module cannot honor them — a
	// dangling window needs up to O(span²) extra interned states — so a
	// dangling policy deterministically excludes "fsa".
	Dangling bool
	// MaxFSAStates overrides DefaultMaxFSAStates (0 = default).
	MaxFSAStates int
}

// BackendCost is one backend's measured calibration outcome.
type BackendCost struct {
	Backend    string  `json:"backend"`
	Feasible   bool    `json:"feasible"`
	Reason     string  `json:"reason,omitempty"` // why infeasible
	Probes     int64   `json:"probes,omitempty"` // basic-function calls, one per check probe
	Work       int64   `json:"work,omitempty"`   // counted work units over the trace
	CostPerOp  float64 `json:"cost_per_op,omitempty"`
	States     int     `json:"states,omitempty"` // FSA interned states (fwd+rev)
	StateBytes int     `json:"state_bytes,omitempty"`
}

// Calibration is the full measured outcome for one (description,
// policy) pair: every candidate backend's cost on the shared probe
// trace and the chosen winner.
type Calibration struct {
	Backends []BackendCost `json:"backends"`
	Winner   string        `json:"winner"`
}

// Cost returns the calibration entry for a backend name.
func (c *Calibration) Cost(backend string) *BackendCost {
	for i := range c.Backends {
		if c.Backends[i].Backend == backend {
			return &c.Backends[i]
		}
	}
	return nil
}

// Selection is Select's result: a fresh module of the chosen backend.
// Cal is non-nil only when auto-selection actually calibrated.
type Selection struct {
	Module  Module
	Backend string
	Cal     *Calibration
}

// calKey identifies one cached calibration. The expanded description is
// keyed by pointer identity, exactly like compileFor: callers that want
// cache hits reuse the *Expanded (machineEntry, CachedReduce and the
// arenas already do).
type calKey struct {
	e            *resmodel.Expanded
	ii, k, wBits int
	dangling     bool
	maxStates    int
}

var (
	calMu    sync.Mutex
	calCache = map[calKey]*Calibration{}
)

const calCacheCap = 512

// autoCandidates is the fixed candidate order. It is also the
// tie-break: on equal cost the earlier name wins, so selection never
// depends on map order.
var autoCandidates = [...]string{"discrete", "bitvector", "fsa"}

// Select builds a query module for e under p. A pinned representation
// is constructed directly; "auto" (or "") measures every feasible
// registered backend on a deterministic synthetic trace and returns the
// cheapest. Auto-selection can always fall back to discrete, so it
// never fails; calibrations are cached per (description, policy) with
// pointer identity on e.
func Select(e *resmodel.Expanded, p Policy) (*Selection, error) {
	rep := p.Representation
	if rep == "" {
		rep = "auto"
	}
	if rep != "auto" {
		f, ok := LookupBackend(rep)
		if !ok {
			return nil, fmt.Errorf("query: unknown backend %q", rep)
		}
		m, err := f(e, p.opts())
		if err != nil {
			return nil, err
		}
		return &Selection{Module: m, Backend: rep}, nil
	}

	cal := calibrate(e, p)
	f, _ := LookupBackend(cal.Winner)
	m, err := f(e, p.opts())
	if err != nil {
		// The winner built during calibration; a failure here means the
		// backend is nondeterministic, which is a bug worth surfacing.
		return nil, fmt.Errorf("query: auto-selected backend %q failed to rebuild: %w", cal.Winner, err)
	}
	return &Selection{Module: m, Backend: cal.Winner, Cal: cal}, nil
}

func (p Policy) opts() BackendOpts {
	maxStates := p.MaxFSAStates
	if maxStates == 0 {
		maxStates = DefaultMaxFSAStates
	}
	return BackendOpts{II: p.II, K: p.K, WordBits: p.WordBits, MaxStates: maxStates}
}

func (p Policy) key(e *resmodel.Expanded) calKey {
	o := p.opts()
	return calKey{e: e, ii: o.II, k: o.K, wBits: o.WordBits, dangling: p.Dangling, maxStates: o.MaxStates}
}

// calibrate measures every candidate backend on the shared trace,
// caching the outcome. The cache mirrors compileFor: bounded, dropped
// wholesale, double-checked around the unlocked measurement.
func calibrate(e *resmodel.Expanded, p Policy) *Calibration {
	key := p.key(e)
	calMu.Lock()
	if got, ok := calCache[key]; ok {
		calMu.Unlock()
		return got
	}
	calMu.Unlock()

	cal := measure(e, p)

	calMu.Lock()
	if got, ok := calCache[key]; ok {
		calMu.Unlock()
		return got
	}
	if len(calCache) >= calCacheCap {
		clear(calCache)
	}
	calCache[key] = cal
	calMu.Unlock()
	return cal
}

func measure(e *resmodel.Expanded, p Policy) *Calibration {
	o := p.opts()
	cal := &Calibration{}
	// Discrete is the reference: always feasible, and its trace answers
	// define correctness for the others.
	var ref []traceStep
	for _, name := range autoCandidates {
		bc := BackendCost{Backend: name}
		switch {
		case name == "fsa" && o.II != 0:
			bc.Reason = "modulo schedule (FSA pair module is linear-only)"
		case name == "fsa" && p.Dangling:
			bc.Reason = "dangling usages (FSA pair module cannot seed dangling windows)"
		default:
			f, ok := LookupBackend(name)
			if !ok {
				bc.Reason = "backend not registered"
				break
			}
			m, err := f(e, o)
			if err != nil {
				bc.Reason = err.Error()
				break
			}
			steps := runTrace(m, e, o.II)
			if ref == nil {
				ref = steps
			} else if !traceEqual(ref, steps) {
				// Defensive: a backend that disagrees with discrete on the
				// trace would break byte-identical scheduling; never pick it.
				bc.Reason = "trace answers diverge from discrete"
				break
			}
			ctr := m.Counters()
			bc.Feasible = true
			bc.Work = ctr.TotalWork()
			bc.Probes = ctr.TotalCalls()
			if bc.Probes > 0 {
				bc.CostPerOp = float64(bc.Work) / float64(bc.Probes)
			}
			if mf, ok := m.(MemoryFootprint); ok {
				bc.StateBytes = mf.StateBytes()
			}
			if as, ok := m.(interface{ AutomatonStates() int }); ok {
				bc.States = as.AutomatonStates()
			}
		}
		cal.Backends = append(cal.Backends, bc)
	}
	best := -1
	for i, bc := range cal.Backends {
		if !bc.Feasible {
			continue
		}
		if best < 0 || bc.CostPerOp < cal.Backends[best].CostPerOp {
			best = i
		}
	}
	// Discrete always builds, so best is always set.
	cal.Winner = cal.Backends[best].Backend
	return cal
}

// traceStep records one probe-trace decision for cross-backend
// verification.
type traceStep struct {
	op, cycle int
	ok        bool
}

// traceSteps is the length of the calibration trace: long enough that
// per-op costs dominate construction noise in the counters, short
// enough that calibration is paid once per machine and forgotten.
const traceSteps = 48

// runTrace drives m through a fixed, seeded scheduling-like workload:
// slot searches, assigns, spot checks and frees, mimicking the list
// scheduler's mix. The linear congruential generator makes the trace a
// pure function of the description, so every backend sees the
// identical request sequence. Slot searches run the per-cycle
// CheckWithAlt loop (FirstFreeWithAltNaive), not the module's own range
// scan: every backend is then charged in the paper's currency — work
// per check — rather than in whatever unit its range scan counts (row
// windows of 64 candidates, cells, automaton probes), which would not
// compare across backends.
func runTrace(m Module, e *resmodel.Expanded, ii int) []traceStep {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	window := 63
	if ii > 0 {
		window = ii - 1
	}
	type placedInst struct{ op, cycle int }
	var placed []placedInst
	steps := make([]traceStep, 0, traceSteps)
	id := 0
	front := 0
	for i := 0; i < traceSteps; i++ {
		origOp := next(len(e.AltGroup))
		lo := front + next(4)
		if ii > 0 {
			// Modulo: scan one full period from a random start, as the IMS
			// slot scan does.
			lo = next(ii)
			window = ii - 1
		}
		op, cycle, ok := FirstFreeWithAltNaive(m, origOp, lo, lo+window)
		steps = append(steps, traceStep{op: op, cycle: cycle, ok: ok})
		if ok && m.Check(op, cycle) {
			m.Assign(op, cycle, id)
			placed = append(placed, placedInst{op: op, cycle: cycle})
			id++
		}
		// Spot checks inside the contended band: the exact searcher and
		// the IMS slot scan both issue point probes that a range scan
		// cannot amortize, and they dominate real query mixes (the
		// paper's Table 6 metric is res-uses per check). Range hits and
		// misses alone would overweight backends with good scans.
		for j := 0; j < 2; j++ {
			spotOp := next(len(e.Ops))
			spot := front + next(6)
			if ii > 0 {
				spot = next(ii)
			}
			steps = append(steps, traceStep{op: spotOp, cycle: spot, ok: m.Check(spotOp, spot)})
		}
		if i%6 == 5 {
			front++
		}
		if i%5 == 4 && len(placed) > 0 {
			// Free the oldest instance, as a backtracking scheduler would.
			oldest := placed[0]
			placed = placed[1:]
			m.Free(oldest.op, oldest.cycle, id-len(placed)-1)
		}
	}
	return steps
}

func traceEqual(a, b []traceStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
