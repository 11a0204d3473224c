// Package repro is a reproduction of Eichenberger & Davidson, "A Reduced
// Multipipeline Machine Description that Preserves Scheduling Constraints"
// (PLDI 1996): automated, error-free reduction of reservation-table
// machine descriptions that exactly preserves every scheduling constraint,
// plus the contention query module and schedulers of the paper's
// evaluation.
//
// # Quick start
//
//	m, err := repro.ParseMachine(src)          // or repro.BuiltinMachine("cydra5")
//	red, err := repro.Reduce(m, repro.Objective{Kind: repro.KCycleWord, K: 4})
//	mod, err := repro.NewBitvectorModule(red.Reduced, 4, 64, 0)
//	if mod.Check(op, cycle) { mod.Assign(op, cycle, id) }
//
// The reduced description answers every contention query exactly as the
// original does — Reduce verifies this by reconstructing the
// forbidden-latency matrix — while being several times faster to query
// and smaller to store.
//
// The package is a facade over the implementation packages:
//
//	internal/resmodel   machine model (resources, reservation tables, alternatives)
//	internal/mdl        textual machine-description language
//	internal/forbidden  forbidden-latency matrices and operation classes
//	internal/core       the reduction (Algorithm 1 + cover selection)
//	internal/query      contention query module (discrete/bitvector, linear/modulo)
//	internal/automaton  finite-state-automaton baseline
//	internal/ddg        loop dependence graphs and MII
//	internal/loopgen    synthetic loop benchmark
//	internal/sched      iterative modulo scheduler and list scheduler
//	internal/tables     regeneration of the paper's tables and figures
package repro

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// Machine model types.
type (
	// Machine is a machine description: named resources plus operations
	// with (possibly alternative) reservation tables.
	Machine = resmodel.Machine
	// Operation is one machine operation.
	Operation = resmodel.Operation
	// Table is a reservation table.
	Table = resmodel.Table
	// Usage is a single reservation-table entry.
	Usage = resmodel.Usage
	// Expanded is a machine with alternative usages expanded into
	// alternative operations (Section 3 of the paper).
	Expanded = resmodel.Expanded
	// MachineBuilder assembles machines programmatically.
	MachineBuilder = resmodel.Builder
)

// Reduction types.
type (
	// Objective selects what the reduction minimizes: ResUses for the
	// discrete representation or KCycleWord for packed bitvectors.
	Objective = core.Objective
	// Reduction is a completed, verified machine-description reduction.
	Reduction = core.Result
)

// Objective kinds.
const (
	// ResUses minimizes resource usages (discrete representation).
	ResUses = core.ResUses
	// KCycleWord minimizes non-empty K-cycle words (bitvector
	// representation).
	KCycleWord = core.KCycleWord
)

// Scheduling types.
type (
	// Module is the contention query interface (check / assign /
	// assign&free / free / check-with-alt).
	Module = query.Module
	// QueryCounters is the work-unit accounting of a module.
	QueryCounters = query.Counters
	// Loop is a loop-body dependence graph.
	Loop = ddg.Graph
	// LoopNode is one operation of a loop body.
	LoopNode = ddg.Node
	// LoopEdge is a dependence with latency and iteration distance.
	LoopEdge = ddg.Edge
	// ModuloSchedule is the result of modulo scheduling one loop.
	ModuloSchedule = sched.Result
	// SchedConfig configures the Iterative Modulo Scheduler.
	SchedConfig = sched.Config
	// ModuleFactory builds a query module for a given initiation interval.
	ModuleFactory = sched.ModuleFactory
	// Automaton is the finite-state-automaton baseline.
	Automaton = automaton.Automaton
	// Dangling is a resource requirement dangling into a basic block from
	// a predecessor (Section 1's boundary conditions).
	Dangling = query.Dangling
	// DanglingSeeder is implemented by reserved-table modules that accept
	// boundary conditions (the discrete and bitvector modules; the
	// automaton pair cannot without extra states).
	DanglingSeeder = query.DanglingSeeder
	// Region is an acyclic control-flow graph of basic blocks scheduled
	// across block boundaries with dangling resource requirements.
	Region = cfg.Graph
	// RegionBlock is one basic block of a Region.
	RegionBlock = cfg.Block
	// RegionXEdge is a cross-block data dependence.
	RegionXEdge = cfg.XEdge
	// RegionSchedule is the per-block schedule of a Region.
	RegionSchedule = cfg.Schedule
)

// NewMachine returns a builder for authoring a machine programmatically.
func NewMachine(name string) *MachineBuilder { return resmodel.NewBuilder(name) }

// ParseMachine parses a textual machine description (see internal/mdl for
// the grammar) and validates it.
func ParseMachine(src string) (*Machine, error) { return mdl.Parse(src) }

// PrintMachine renders a machine in the textual description language;
// ParseMachine(PrintMachine(m)) is equivalent to m.
func PrintMachine(m *Machine) string { return mdl.Print(m) }

// BuiltinMachine returns one of the paper's machines: "example" (Figure 1),
// "mips" (R3000/R3010), "alpha" (21064), "cydra5", or "cydra5-subset".
// It returns nil for unknown names; BuiltinMachines lists valid names.
func BuiltinMachine(name string) *Machine { return machines.ByName(name) }

// BuiltinMachines lists the names accepted by BuiltinMachine.
func BuiltinMachines() []string { return machines.Names() }

// Reduce runs the paper's three-step reduction on the machine and verifies
// that the result preserves the forbidden-latency matrix exactly.
//
// Reductions are memoized in a process-wide content-keyed cache: reducing
// the same machine (by canonicalized content, not name) under the same
// objective again returns the already-verified Result without recomputing
// either the reduction or its verification.
func Reduce(m *Machine, obj Objective) (*Reduction, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	res := core.CachedReduce(m.Expand(), obj)
	if err := res.Verify(); err != nil {
		return nil, fmt.Errorf("repro: internal error: %w", err)
	}
	return res, nil
}

// NewDiscreteModule creates a discrete-representation contention query
// module over the (original or reduced) expanded description; ii > 0
// selects a Modulo Reservation Table with ii columns.
func NewDiscreteModule(e *Expanded, ii int) Module { return query.NewDiscrete(e, ii) }

// NewBitvectorModule creates a bitvector-representation module packing k
// cycle-bitvectors per word of wordBits (32 or 64) bits.
func NewBitvectorModule(e *Expanded, k, wordBits, ii int) (Module, error) {
	return query.NewBitvector(e, k, wordBits, ii)
}

// MaxCyclesPerWord returns the densest legal bitvector packing for a
// description with the given resource count.
func MaxCyclesPerWord(numResources, wordBits int) int {
	return query.MaxCyclesPerWord(numResources, wordBits)
}

// ParseLoop parses a loop dependence graph in the textual format of
// internal/ddg, resolving operation names against the machine.
func ParseLoop(src string, m *Machine) (*Loop, error) { return ddg.Parse(src, m) }

// PrintLoop renders a loop in the format accepted by ParseLoop.
func PrintLoop(g *Loop, m *Machine) string { return ddg.Print(g, m) }

// MII returns the minimum initiation interval of the loop on the machine
// (the maximum of its resource-constrained and recurrence-constrained
// bounds).
func MII(g *Loop, m *Machine) int { return g.MII(ddg.MachineUsage{M: m}) }

// ModuloScheduleLoop software-pipelines the loop with Rau's Iterative
// Modulo Scheduler, issuing contention queries through modules built by
// factory (use DiscreteFactory or BitvectorFactory).
func ModuloScheduleLoop(g *Loop, m *Machine, factory ModuleFactory, cfg SchedConfig) ModuloSchedule {
	return sched.Schedule(g, m, factory, cfg)
}

// VerifyModuloSchedule checks a schedule against the loop's dependences
// and the given description's resources.
func VerifyModuloSchedule(g *Loop, e *Expanded, r ModuloSchedule) error {
	return sched.VerifySchedule(g, e, r)
}

// DefaultSchedConfig returns the paper's scheduler configuration
// (decision budget 6N).
func DefaultSchedConfig() SchedConfig { return sched.DefaultConfig() }

// DiscreteFactory builds Modulo Reservation Table modules over e.
func DiscreteFactory(e *Expanded) ModuleFactory {
	return func(ii int) Module { return query.NewDiscrete(e, ii) }
}

// BitvectorFactory builds bitvector Modulo Reservation Table modules over
// e with the given packing.
func BitvectorFactory(e *Expanded, k, wordBits int) ModuleFactory {
	return func(ii int) Module {
		mod, err := query.NewBitvector(e, k, wordBits, ii)
		if err != nil {
			panic(err)
		}
		return mod
	}
}

// BenchmarkLoops generates the deterministic synthetic stand-in for the
// paper's 1327-loop benchmark (requires a Cydra-5-like machine providing
// the benchmark operations).
func BenchmarkLoops(m *Machine) ([]*Loop, error) {
	return loopgen.Generate(m, loopgen.Default())
}

// BuildForwardAutomaton constructs the Proebsting-Fraser-style forward
// automaton for the description (the paper's Section 2 comparator), with
// a state-count safety limit.
func BuildForwardAutomaton(e *Expanded, maxStates int) (*Automaton, error) {
	return automaton.BuildForward(e, automaton.Limit{MaxStates: maxStates})
}

// NewPairModule builds the forward/reverse automaton pair supporting the
// unrestricted scheduling model — the Section 2 comparator whose
// per-cycle state storage and insertion propagation the paper's reduced
// reservation tables avoid.
func NewPairModule(e *Expanded, maxStates int) (Module, error) {
	return automaton.NewPairModule(e, automaton.Limit{MaxStates: maxStates})
}

// DanglingFrom extracts the requirements a scheduled block leaves
// dangling past its exit cycle, re-anchored to the successor block's
// entry; instances come from a module's Instances method and span maps an
// expanded op to its reservation-table span.
func DanglingFrom(instances map[int]struct{ Op, Cycle int }, span func(op int) int, exit int) []Dangling {
	return query.DanglingFrom(instances, span, exit)
}

// BuildKernel folds a successful modulo schedule into its steady-state
// kernel (II rows, stage-tagged operations) with prologue/epilogue
// accounting.
func BuildKernel(g *Loop, r ModuloSchedule) (*sched.Kernel, error) {
	return sched.BuildKernel(g, r)
}

// ValidateOverlap replays several overlapped iterations of a modulo
// schedule on a fresh linear reserved table over the given description
// and verifies they are contention- and dependence-free — the end-to-end
// proof that the pipelined steady state is correct beyond the MRT
// abstraction.
func ValidateOverlap(g *Loop, e *Expanded, r ModuloSchedule, iters int) error {
	return sched.ValidateOverlap(g, e, r, iters, func() interface {
		Check(op, cycle int) bool
		Assign(op, cycle, id int)
	} {
		return query.NewDiscrete(e, 0)
	})
}

// ScheduleRegion schedules every basic block of an acyclic control-flow
// region, seeding each block's reserved table with the union of its
// predecessors' dangling resource requirements (Section 1's boundary
// conditions). The result is valid along every control path.
func ScheduleRegion(g *Region, e *Expanded) (*RegionSchedule, error) {
	return cfg.ScheduleRegion(g, e)
}

// ReplayRegionPath validates a region schedule along one control path by
// concatenating its blocks on a single reserved table over the given
// description.
func ReplayRegionPath(g *Region, e *Expanded, s *RegionSchedule, path []int) error {
	return cfg.ReplayPath(g, e, s, path)
}

// OperationDrivenSchedule schedules an acyclic dependence graph in
// operation (priority) order with arbitrary-cycle insertion — the
// unrestricted placement pattern of the Cydra 5 compiler's scalar
// scheduler. Any Module backend works.
func OperationDrivenSchedule(g *Loop, e *Expanded, mod Module) (sched.ListResult, error) {
	return sched.OperationDriven(g, e, mod)
}
