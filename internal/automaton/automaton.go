// Package automaton implements the finite-state-automaton approach to
// contention detection that the paper compares against (Section 2):
// Proebsting & Fraser's forward automaton recognizing all contention-free
// schedules, and the time-reversed automaton of Bala & Rubin's
// forward/reverse pair.
//
// A state is the residual resource commitment of the current partial
// schedule — for each resource, the set of future cycles already reserved
// relative to "now". Transitions either issue an operation in the current
// cycle (defined only when contention-free) or advance to the next cycle
// (shifting every commitment down by one). The automaton answers a
// contention query with a single table lookup, but supports only
// cycle-ordered scheduling directly; supporting unrestricted schedulers
// requires storing and repairing per-cycle states, which is the overhead
// the paper's reduced reservation tables avoid.
package automaton

import (
	"fmt"

	"repro/internal/resmodel"
)

// maxSpanBits bounds reservation-table spans so one uint64 per resource
// encodes a state.
const maxSpanBits = 64

// Automaton is a contention-recognizing finite-state machine for one
// machine description.
type Automaton struct {
	e       *resmodel.Expanded
	reverse bool
	span    int
	// tables[op][r] is the commitment mask of op's reservation table for
	// resource r (bit c = resource r used c cycles from issue).
	tables [][]uint64
	// issue[state*numOps + op] is the successor after issuing op in the
	// current cycle, or -1 on contention. advance[state] is the successor
	// after a cycle boundary.
	issue   []int32
	advance []int32
	numOps  int
}

// Limit bounds automaton construction; machines whose automata exceed it
// (as the paper notes, "a potential problem of this approach is the size
// of these automata") fail with ErrTooLarge.
type Limit struct {
	MaxStates int
}

// DefaultLimit allows a million states.
func DefaultLimit() Limit { return Limit{MaxStates: 1 << 20} }

// ErrTooLarge reports an automaton blowing past the state limit.
type ErrTooLarge struct {
	States int
}

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("automaton: state count exceeds limit (%d states reached)", e.States)
}

// BuildForward constructs the forward automaton of the machine.
func BuildForward(e *resmodel.Expanded, lim Limit) (*Automaton, error) {
	return build(e, false, lim)
}

// BuildReverse constructs the automaton over time-reversed reservation
// tables (Bala & Rubin's reverse automaton, used to check whether an
// operation can be inserted before already-scheduled ones).
func BuildReverse(e *resmodel.Expanded, lim Limit) (*Automaton, error) {
	return build(e, true, lim)
}

func build(e *resmodel.Expanded, reverse bool, lim Limit) (*Automaton, error) {
	span := e.MaxSpan()
	if span > maxSpanBits {
		return nil, fmt.Errorf("automaton: reservation-table span %d exceeds %d cycles", span, maxSpanBits)
	}
	if lim.MaxStates <= 0 {
		lim = DefaultLimit()
	}
	a := &Automaton{e: e, reverse: reverse, span: span, numOps: len(e.Ops)}
	a.tables = make([][]uint64, len(e.Ops))
	for oi, o := range e.Ops {
		masks := make([]uint64, len(e.Resources))
		os := o.Table.Span()
		for _, u := range o.Table.Uses {
			c := u.Cycle
			if reverse {
				c = os - 1 - u.Cycle
			}
			masks[u.Resource] |= 1 << uint(c)
		}
		a.tables[oi] = masks
	}

	// BFS over canonical states.
	nRes := len(e.Resources)
	key := func(st []uint64) string {
		b := make([]byte, 0, nRes*8)
		for _, w := range st {
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(w>>uint(s)))
			}
		}
		return string(b)
	}
	var states [][]uint64
	index := map[string]int32{}
	intern := func(st []uint64) int32 {
		k := key(st)
		if i, ok := index[k]; ok {
			return i
		}
		i := int32(len(states))
		index[k] = i
		states = append(states, st)
		return i
	}
	empty := make([]uint64, nRes)
	intern(empty)

	for si := 0; si < len(states); si++ {
		if len(states) > lim.MaxStates {
			return nil, &ErrTooLarge{States: len(states)}
		}
		st := states[si]
		// Issue transitions.
		for op := 0; op < a.numOps; op++ {
			masks := a.tables[op]
			conflict := false
			for r := 0; r < nRes; r++ {
				if st[r]&masks[r] != 0 {
					conflict = true
					break
				}
			}
			if conflict {
				a.issue = append(a.issue, -1)
				continue
			}
			ns := make([]uint64, nRes)
			for r := 0; r < nRes; r++ {
				ns[r] = st[r] | masks[r]
			}
			a.issue = append(a.issue, intern(ns))
		}
		// Advance transition.
		ns := make([]uint64, nRes)
		for r := 0; r < nRes; r++ {
			ns[r] = st[r] >> 1
		}
		a.advance = append(a.advance, intern(ns))
	}
	return a, nil
}

// NumStates returns the number of automaton states.
func (a *Automaton) NumStates() int { return len(a.advance) }

// NumOps returns the number of operations the automaton recognizes.
func (a *Automaton) NumOps() int { return a.numOps }

// Walker traverses the automaton along a schedule, one cycle at a time.
type Walker struct {
	a   *Automaton
	cur int32
}

// Walk returns a walker positioned at the empty-schedule state.
func (a *Automaton) Walk() *Walker { return &Walker{a: a} }

// CanIssue reports whether op can issue in the current cycle: a single
// table lookup.
func (w *Walker) CanIssue(op int) bool {
	return w.a.issue[int(w.cur)*w.a.numOps+op] >= 0
}

// Issue issues op in the current cycle; it reports false (and stays put)
// on contention.
func (w *Walker) Issue(op int) bool {
	n := w.a.issue[int(w.cur)*w.a.numOps+op]
	if n < 0 {
		return false
	}
	w.cur = n
	return true
}

// Advance moves to the next cycle.
func (w *Walker) Advance() { w.cur = w.a.advance[w.cur] }
