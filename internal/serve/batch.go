package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	_ "repro/internal/automaton" // registers the "fsa" query backend
	"repro/internal/ddg"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// BatchRequest is the body of POST /v1/batch: a contention-query
// sequence executed in order on a fresh module over a registered
// description. Either assign or assign&free, but not both, should be
// used within one batch (the paper's usage contract).
type BatchRequest struct {
	// Machine names a registered description (see /v1/reduce).
	Machine string `json:"machine"`
	// Use selects "reduced" (default) or "original" description.
	Use string `json:"use,omitempty"`
	// Representation selects "discrete" (default), "bitvector", "fsa"
	// (the forbidden-latency pair automaton, linear tables only) or
	// "auto" (measured per-machine selection; the chosen backend is
	// reported in the response).
	Representation string `json:"representation,omitempty"`
	// K is the bitvector packing (cycles per word); 0 selects the
	// densest legal packing for the description's resource count.
	K int `json:"k,omitempty"`
	// WordBits is the bitvector word size, 32 or 64 (0 selects 64).
	WordBits int `json:"word_bits,omitempty"`
	// II selects a Modulo Reservation Table with II columns; 0 selects a
	// linear reserved table.
	II int `json:"ii,omitempty"`
	// Ops is the query sequence.
	Ops []BatchOp `json:"ops"`
}

// BatchOp is one query of a batch or session request.
type BatchOp struct {
	// Fn is "check", "assign", "assign_free", "free", "check_with_alt",
	// "first_free", "first_free_alt" or "schedule".
	Fn string `json:"fn"`
	// Op is the expanded-op index ("check_with_alt", "first_free_alt":
	// the original-op index).
	Op int `json:"op"`
	// Cycle is the schedule cycle (unused by the range queries).
	Cycle int `json:"cycle"`
	// Lo and Hi bound the inclusive cycle range of "first_free" and
	// "first_free_alt".
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// ID is the instance id ("assign", "assign_free", "free").
	ID int `json:"id,omitempty"`
	// Scheduler selects the "schedule" op's engine: "optimal" (default)
	// or "ims".
	Scheduler string `json:"scheduler,omitempty"`
	// Loop is the "schedule" op's dependence graph.
	Loop *LoopSpec `json:"loop,omitempty"`
	// MaxNodes caps the exact search's node budget for one "schedule"
	// op; 0 selects scheduleDefaultNodes, values above scheduleMaxNodes
	// are rejected.
	MaxNodes int64 `json:"max_nodes,omitempty"`
}

// LoopSpec is the dependence graph of a "schedule" op: one entry of Ops
// per loop operation (original-op indices into the selected
// description) plus the dependence edges between them.
type LoopSpec struct {
	Ops   []int      `json:"ops"`
	Edges []LoopEdge `json:"edges,omitempty"`
}

// LoopEdge is one dependence: To issues at least Delay cycles after
// From, Dist iterations earlier.
type LoopEdge struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Delay int `json:"delay"`
	Dist  int `json:"dist,omitempty"`
}

// BatchResult is the answer to one BatchOp. Check-like ops set OK;
// check_with_alt and first_free_alt additionally set AltOp on success;
// the range queries set Cycle to the first contention-free cycle found;
// assign_free lists the evicted instance ids (omitted when none).
// A schedule op sets OK and MII, on success II plus the per-loop-op
// Times and Alts (expanded-op indices), and under the optimal engine
// Proven/Fallback (exactly one true — see sched.OptimalResult).
type BatchResult struct {
	OK       *bool `json:"ok,omitempty"`
	AltOp    *int  `json:"alt_op,omitempty"`
	Cycle    *int  `json:"cycle,omitempty"`
	Evicted  []int `json:"evicted,omitempty"`
	II       *int  `json:"ii,omitempty"`
	MII      *int  `json:"mii,omitempty"`
	Proven   *bool `json:"proven,omitempty"`
	Fallback *bool `json:"fallback,omitempty"`
	Times    []int `json:"times,omitempty"`
	Alts     []int `json:"alts,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch. Backend is
// the concrete backend that served the batch — equal to Representation
// when one was pinned, the measured winner under "auto".
type BatchResponse struct {
	Machine        string         `json:"machine"`
	Use            string         `json:"use"`
	Representation string         `json:"representation"`
	Backend        string         `json:"backend"`
	II             int            `json:"ii"`
	Results        []BatchResult  `json:"results"`
	Counters       query.Counters `json:"counters"`
}

// httpError carries a status code alongside a client-facing message.
type httpError struct {
	status int
	msg    string
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// maxModuloCycle bounds |cycle| on modulo tables: folding handles any
// cycle, but bounding keeps cycle+usage arithmetic far from integer
// overflow on every platform.
const maxModuloCycle = 1 << 30

// expandedFor returns the description variant the given use string
// selects ("original" or anything else = "reduced").
func (me *machineEntry) expandedFor(use string) *resmodel.Expanded {
	if use == "original" {
		return me.expanded
	}
	return me.red.Reduced
}

// machineFor returns the machine matching expandedFor's variant, the
// basis of the schedule op's resource-MII bound.
func (me *machineEntry) machineFor(use string) *resmodel.Machine {
	if use == "original" {
		return me.src
	}
	return me.red.Reduced.Machine()
}

// buildModule validates the module configuration of a batch or session
// request and constructs a fresh query module over the selected
// description variant through query.Select, so every representation the
// registry knows — including "fsa" and measured "auto" selection — is
// served by the same chokepoint. It returns the normalized
// use/representation strings (defaults applied) alongside the
// selection; every invalid configuration maps to a 4xx httpError.
func (s *Server) buildModule(me *machineEntry, use, rep string, k, wordBits, ii int) (
	e *resmodel.Expanded, sel *query.Selection, useOut, repOut string, herr *httpError) {
	switch use {
	case "":
		use = "reduced"
	case "reduced", "original":
	default:
		return nil, nil, "", "", errf(http.StatusBadRequest, "bad use %q (want reduced or original)", use)
	}
	e = me.expandedFor(use)

	if ii < 0 || ii > s.cfg.MaxCycle {
		return nil, nil, "", "", errf(http.StatusBadRequest, "ii %d out of range [0, %d]", ii, s.cfg.MaxCycle)
	}

	switch rep {
	case "":
		rep = "discrete"
	case "discrete", "bitvector", "fsa", "auto":
	default:
		return nil, nil, "", "", errf(http.StatusBadRequest,
			"bad representation %q (want discrete, bitvector, fsa or auto)", rep)
	}
	sel, err := query.Select(e, query.Policy{Representation: rep, II: ii, K: k, WordBits: wordBits})
	if err != nil {
		return nil, nil, "", "", errf(http.StatusBadRequest, "%v", err)
	}
	return e, sel, use, rep, nil
}

// placed records where a live instance was scheduled so frees and id
// reuse are validated instead of corrupting (or panicking inside) the
// module.
type placed struct{ op, cycle int }

// opResult is the value-typed answer to one op, filled in place by
// opExec.exec so the steady state of a long-lived session allocates
// nothing per op. Convert with toBatchResult (batch responses, which
// need stable per-result pointers) or appendJSON (NDJSON streaming,
// which marshals immediately and byte-identically to
// json.Marshal(BatchResult)).
type opResult struct {
	hasOK, ok bool
	hasAlt    bool
	alt       int
	hasCycle  bool
	cycle     int
	evicted   []int // module-owned scratch; copy to retain past the next op
	// Schedule-op outputs: hasSched gates ii/mii (ii and the schedule
	// slices only on ok), hasProven gates proven/fallback (the optimal
	// engine only).
	hasSched         bool
	ii, mii          int
	hasProven        bool
	proven, fallback bool
	times, alts      []int
}

func (r *opResult) reset() { *r = opResult{} }

// toBatchResult detaches the result into the wire struct, allocating
// fresh pointer cells and copying the slices.
func (r *opResult) toBatchResult() BatchResult {
	var out BatchResult
	if r.hasOK {
		ok := r.ok
		out.OK = &ok
	}
	if r.hasAlt {
		v := r.alt
		out.AltOp = &v
	}
	if r.hasCycle {
		v := r.cycle
		out.Cycle = &v
	}
	if len(r.evicted) > 0 {
		out.Evicted = append([]int(nil), r.evicted...)
	}
	if r.hasSched {
		if r.ok {
			v := r.ii
			out.II = &v
		}
		v := r.mii
		out.MII = &v
	}
	if r.hasProven {
		p, fb := r.proven, r.fallback
		out.Proven = &p
		out.Fallback = &fb
	}
	if r.hasSched && r.ok {
		out.Times = append([]int(nil), r.times...)
		out.Alts = append([]int(nil), r.alts...)
	}
	return out
}

// appendJSON appends the result's JSON encoding to b, byte-identical to
// json.Marshal of the equivalent BatchResult (same field order, same
// omitempty behaviour) without allocating. TestOpResultJSONMatchesMarshal
// pins the equivalence.
func (r *opResult) appendJSON(b []byte) []byte {
	b = append(b, '{')
	first := true
	comma := func() {
		if !first {
			b = append(b, ',')
		}
		first = false
	}
	if r.hasOK {
		comma()
		b = append(b, `"ok":`...)
		b = strconv.AppendBool(b, r.ok)
	}
	if r.hasAlt {
		comma()
		b = append(b, `"alt_op":`...)
		b = strconv.AppendInt(b, int64(r.alt), 10)
	}
	if r.hasCycle {
		comma()
		b = append(b, `"cycle":`...)
		b = strconv.AppendInt(b, int64(r.cycle), 10)
	}
	if len(r.evicted) > 0 {
		comma()
		b = append(b, `"evicted":[`...)
		for i, id := range r.evicted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	if r.hasSched {
		if r.ok {
			comma()
			b = append(b, `"ii":`...)
			b = strconv.AppendInt(b, int64(r.ii), 10)
		}
		comma()
		b = append(b, `"mii":`...)
		b = strconv.AppendInt(b, int64(r.mii), 10)
	}
	if r.hasProven {
		comma()
		b = append(b, `"proven":`...)
		b = strconv.AppendBool(b, r.proven)
		comma()
		b = append(b, `"fallback":`...)
		b = strconv.AppendBool(b, r.fallback)
	}
	if r.hasSched && r.ok {
		b = appendIntList(b, &first, "times", r.times)
		b = appendIntList(b, &first, "alts", r.alts)
	}
	return append(b, '}')
}

// appendIntList appends `"key":[v,...]` (preceded by a comma when
// needed) unless vs is empty, mirroring encoding/json's omitempty.
func appendIntList(b []byte, first *bool, key string, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	if !*first {
		b = append(b, ',')
	}
	*first = false
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":[`...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// opExec executes validated ops against one query module, tracking the
// partial schedule's live instances. It is the single op interpreter
// shared by the one-shot batch endpoint and by scheduling sessions, so
// validation and result semantics cannot diverge between them. Every
// malformed or semantically invalid op returns a 4xx httpError before it
// can reach a code path that panics (out-of-range indices, negative
// linear cycles, assign-on-conflict, free of unknown instances); the
// fuzz harness pins this.
type opExec struct {
	e        *resmodel.Expanded
	m        *resmodel.Machine // e's machine, for the schedule op's MII bounds
	mod      query.Module
	rep      string       // requested representation (normalized; may be "auto")
	backend  string       // concrete backend serving mod
	pol      query.Policy // module policy; schedule-op arenas re-select per II
	ii       int
	maxCycle int
	live     map[int]placed
	// sa is the schedule op's arena (lazily built): per-II modules over
	// e selected under pol, reused across the executor's schedule ops.
	// It is independent of mod — a schedule op never touches the
	// session's partial MRT.
	sa *sched.Arena
}

func newOpExec(e *resmodel.Expanded, m *resmodel.Machine, sel *query.Selection, rep string, pol query.Policy, maxCycle int) *opExec {
	return &opExec{
		e:        e,
		m:        m,
		mod:      sel.Module,
		rep:      rep,
		backend:  sel.Backend,
		pol:      pol,
		ii:       pol.II,
		maxCycle: maxCycle,
		live:     map[int]placed{},
	}
}

// Schedule-op caps: small enough that the worst-case request (dense
// graph at the node cap, every II attempt rebuilding an O(n^3) closure)
// stays well under the request deadline, large enough for real inner
// loops.
const (
	scheduleMaxLoopOps   = 64
	scheduleMaxEdges     = 256
	scheduleMaxDelay     = 255
	scheduleMaxDist      = 8
	scheduleDefaultNodes = 1 << 14
	scheduleMaxNodes     = 1 << 18
	scheduleMaxII        = 512
)

// execSchedule validates and runs one "schedule" op: modulo-schedule
// the loop over this executor's description with the exact searcher
// (scheduler "optimal", the default) or the IMS heuristic ("ims").
func (x *opExec) execSchedule(i int, op *BatchOp, res *opResult) *httpError {
	spec := op.Loop
	if spec == nil {
		return errf(http.StatusBadRequest, "op %d: schedule needs a loop", i)
	}
	if x.rep == "fsa" {
		return errf(http.StatusBadRequest,
			"op %d: representation \"fsa\" does not support the schedule op (modulo scheduling needs a reduced-table backend)", i)
	}
	if n := len(spec.Ops); n == 0 || n > scheduleMaxLoopOps {
		return errf(http.StatusBadRequest, "op %d: loop has %d ops, want [1, %d]", i, len(spec.Ops), scheduleMaxLoopOps)
	}
	if len(spec.Edges) > scheduleMaxEdges {
		return errf(http.StatusBadRequest, "op %d: loop has %d edges, limit %d", i, len(spec.Edges), scheduleMaxEdges)
	}
	if op.MaxNodes < 0 || op.MaxNodes > scheduleMaxNodes {
		return errf(http.StatusBadRequest, "op %d: max_nodes %d out of range [0, %d]", i, op.MaxNodes, scheduleMaxNodes)
	}
	g := &ddg.Graph{Name: "serve", Nodes: make([]ddg.Node, len(spec.Ops))}
	for v, opIdx := range spec.Ops {
		if opIdx < 0 || opIdx >= len(x.e.AltGroup) {
			return errf(http.StatusBadRequest, "op %d: loop op %d: original-op index %d out of range [0, %d)", i, v, opIdx, len(x.e.AltGroup))
		}
		g.Nodes[v].Op = opIdx
	}
	for k, ed := range spec.Edges {
		if ed.From < 0 || ed.From >= len(g.Nodes) || ed.To < 0 || ed.To >= len(g.Nodes) {
			return errf(http.StatusBadRequest, "op %d: loop edge %d: endpoint out of range [0, %d)", i, k, len(g.Nodes))
		}
		if ed.Delay < 0 || ed.Delay > scheduleMaxDelay {
			return errf(http.StatusBadRequest, "op %d: loop edge %d: delay %d out of range [0, %d]", i, k, ed.Delay, scheduleMaxDelay)
		}
		if ed.Dist < 0 || ed.Dist > scheduleMaxDist {
			return errf(http.StatusBadRequest, "op %d: loop edge %d: distance %d out of range [0, %d]", i, k, ed.Dist, scheduleMaxDist)
		}
		g.Edges = append(g.Edges, ddg.Edge{From: ed.From, To: ed.To, Delay: ed.Delay, Dist: ed.Dist})
	}
	if err := g.Validate(); err != nil {
		return errf(http.StatusBadRequest, "op %d: invalid loop: %v", i, err)
	}
	if x.sa == nil {
		e, pol := x.e, x.pol
		x.sa = sched.NewArena(func(ii int) query.Module {
			p := pol
			p.II = ii
			if sel, err := query.Select(e, p); err == nil {
				return sel.Module
			}
			// Selection cannot fail for the policies buildModule admits
			// here at any II (the fsa pin is rejected above, and the
			// bitvector packing checks are II-independent), but serve must
			// never panic — fall back to the reference backend.
			return query.NewDiscrete(e, ii)
		})
	}
	switch op.Scheduler {
	case "", "optimal":
		cfg := sched.DefaultOptimalConfig()
		cfg.MaxNodes = op.MaxNodes
		if cfg.MaxNodes == 0 {
			cfg.MaxNodes = scheduleDefaultNodes
		}
		cfg.MaxII = scheduleMaxII
		r := x.sa.Optimal(g, x.m, cfg)
		res.hasOK, res.ok = true, r.OK
		res.hasSched, res.ii, res.mii = true, r.II, r.MII
		res.hasProven, res.proven, res.fallback = true, r.Proven, r.Fallback
		res.times, res.alts = r.Time, r.Alt
	case "ims":
		cfg := sched.DefaultConfig()
		cfg.MaxII = scheduleMaxII
		r := x.sa.Schedule(g, x.m, cfg)
		res.hasOK, res.ok = true, r.OK
		res.hasSched, res.ii, res.mii = true, r.II, r.MII
		res.times, res.alts = r.Time, r.Alt
	default:
		return errf(http.StatusBadRequest, "op %d: bad scheduler %q (want optimal or ims)", i, op.Scheduler)
	}
	return nil
}

// checkCycle validates one scheduling cycle under the table's cycle cap.
func (x *opExec) checkCycle(i, cycle int) *httpError {
	if x.ii > 0 {
		if cycle < -maxModuloCycle || cycle > maxModuloCycle {
			return errf(http.StatusBadRequest, "op %d: cycle %d out of range on modulo table", i, cycle)
		}
		return nil
	}
	if cycle < 0 || cycle > x.maxCycle {
		return errf(http.StatusBadRequest, "op %d: cycle %d out of range [0, %d] on linear table", i, cycle, x.maxCycle)
	}
	return nil
}

// checkRange validates a first_free window: both bounds obey the same
// cycle caps as per-cycle queries, and the range must be non-empty
// (lo <= hi) so a client typo cannot silently read back "no slot".
func (x *opExec) checkRange(i int, op *BatchOp) *httpError {
	if op.Lo > op.Hi {
		return errf(http.StatusBadRequest, "op %d: empty cycle range [%d, %d]", i, op.Lo, op.Hi)
	}
	for _, c := range [2]int{op.Lo, op.Hi} {
		if x.ii > 0 {
			if c < -maxModuloCycle || c > maxModuloCycle {
				return errf(http.StatusBadRequest, "op %d: range bound %d out of range on modulo table", i, c)
			}
			continue
		}
		if c < 0 || c > x.maxCycle {
			return errf(http.StatusBadRequest, "op %d: range bound %d out of range [0, %d] on linear table", i, c, x.maxCycle)
		}
	}
	return nil
}

// exec validates and runs one op, filling res (which it resets first).
// i is the op's index in its request, used for error messages only.
func (x *opExec) exec(i int, op *BatchOp, res *opResult) *httpError {
	res.reset()
	if herr := x.checkCycle(i, op.Cycle); herr != nil {
		return herr
	}
	switch op.Fn {
	case "check":
		if op.Op < 0 || op.Op >= len(x.e.Ops) {
			return errf(http.StatusBadRequest, "op %d: expanded-op index %d out of range [0, %d)", i, op.Op, len(x.e.Ops))
		}
		res.hasOK = true
		res.ok = x.mod.Check(op.Op, op.Cycle)
	case "check_with_alt":
		if op.Op < 0 || op.Op >= len(x.e.AltGroup) {
			return errf(http.StatusBadRequest, "op %d: original-op index %d out of range [0, %d)", i, op.Op, len(x.e.AltGroup))
		}
		alt, ok := x.mod.CheckWithAlt(op.Op, op.Cycle)
		res.hasOK = true
		res.ok = ok
		if ok {
			res.hasAlt = true
			res.alt = alt
		}
	case "first_free":
		if op.Op < 0 || op.Op >= len(x.e.Ops) {
			return errf(http.StatusBadRequest, "op %d: expanded-op index %d out of range [0, %d)", i, op.Op, len(x.e.Ops))
		}
		if herr := x.checkRange(i, op); herr != nil {
			return herr
		}
		cycle, ok := x.mod.FirstFree(op.Op, op.Lo, op.Hi)
		res.hasOK = true
		res.ok = ok
		if ok {
			res.hasCycle = true
			res.cycle = cycle
		}
	case "first_free_alt":
		if op.Op < 0 || op.Op >= len(x.e.AltGroup) {
			return errf(http.StatusBadRequest, "op %d: original-op index %d out of range [0, %d)", i, op.Op, len(x.e.AltGroup))
		}
		if herr := x.checkRange(i, op); herr != nil {
			return herr
		}
		alt, cycle, ok := x.mod.FirstFreeWithAlt(op.Op, op.Lo, op.Hi)
		res.hasOK = true
		res.ok = ok
		if ok {
			res.hasAlt = true
			res.alt = alt
			res.hasCycle = true
			res.cycle = cycle
		}
	case "assign":
		if op.Op < 0 || op.Op >= len(x.e.Ops) {
			return errf(http.StatusBadRequest, "op %d: expanded-op index %d out of range [0, %d)", i, op.Op, len(x.e.Ops))
		}
		if op.ID < 0 {
			return errf(http.StatusBadRequest, "op %d: negative instance id %d", i, op.ID)
		}
		if _, used := x.live[op.ID]; used {
			return errf(http.StatusBadRequest, "op %d: instance id %d already scheduled", i, op.ID)
		}
		if !x.mod.Check(op.Op, op.Cycle) {
			return errf(http.StatusConflict, "op %d: assign of op %d at cycle %d conflicts (check first, or use assign_free)", i, op.Op, op.Cycle)
		}
		x.mod.Assign(op.Op, op.Cycle, op.ID)
		x.live[op.ID] = placed{op.Op, op.Cycle}
	case "assign_free":
		if op.Op < 0 || op.Op >= len(x.e.Ops) {
			return errf(http.StatusBadRequest, "op %d: expanded-op index %d out of range [0, %d)", i, op.Op, len(x.e.Ops))
		}
		if op.ID < 0 {
			return errf(http.StatusBadRequest, "op %d: negative instance id %d", i, op.ID)
		}
		if _, used := x.live[op.ID]; used {
			return errf(http.StatusBadRequest, "op %d: instance id %d already scheduled", i, op.ID)
		}
		if !x.mod.Schedulable(op.Op) {
			return errf(http.StatusConflict, "op %d: op %d is unschedulable at II=%d", i, op.Op, x.ii)
		}
		ev := x.mod.AssignFree(op.Op, op.Cycle, op.ID)
		// ev is module-owned scratch, valid until the next module call;
		// consumers that retain results past this op must copy it
		// (toBatchResult does).
		res.evicted = ev
		for _, id := range ev {
			delete(x.live, id)
		}
		x.live[op.ID] = placed{op.Op, op.Cycle}
	case "schedule":
		if herr := x.execSchedule(i, op, res); herr != nil {
			return herr
		}
	case "free":
		in, ok := x.live[op.ID]
		if !ok {
			return errf(http.StatusBadRequest, "op %d: free of unscheduled instance id %d", i, op.ID)
		}
		if in.op != op.Op || in.cycle != op.Cycle {
			return errf(http.StatusBadRequest, "op %d: free of instance %d with op/cycle %d/%d, scheduled as %d/%d",
				i, op.ID, op.Op, op.Cycle, in.op, in.cycle)
		}
		x.mod.Free(op.Op, op.Cycle, op.ID)
		delete(x.live, op.ID)
	default:
		return errf(http.StatusBadRequest, "op %d: bad fn %q (want check, assign, assign_free, free, check_with_alt, first_free, first_free_alt or schedule)", i, op.Fn)
	}
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.batch.requests")
	start := time.Now()
	defer func() { obs.Observe("serve.batch.latency", time.Since(start).Microseconds()) }()
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	me := s.lookup(req.Machine)
	if me == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q (register it via /v1/reduce)", req.Machine))
		return
	}
	resp, herr := s.execBatch(r, me, &req)
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	obs.Add("serve.batch.ops", int64(len(req.Ops)))
	obs.Observe("serve.batch.size", int64(len(req.Ops)))
	writeJSON(w, http.StatusOK, resp)
}

// execBatch validates and runs one batch on a fresh module.
func (s *Server) execBatch(r *http.Request, me *machineEntry, req *BatchRequest) (*BatchResponse, *httpError) {
	if len(req.Ops) > s.cfg.MaxBatchOps {
		return nil, errf(http.StatusBadRequest, "batch has %d ops, limit %d", len(req.Ops), s.cfg.MaxBatchOps)
	}
	e, sel, use, rep, herr := s.buildModule(me, req.Use, req.Representation, req.K, req.WordBits, req.II)
	if herr != nil {
		return nil, herr
	}
	pol := query.Policy{Representation: rep, II: req.II, K: req.K, WordBits: req.WordBits}
	x := newOpExec(e, me.machineFor(use), sel, rep, pol, s.cfg.MaxCycle)
	results := make([]BatchResult, 0, len(req.Ops))
	var res opResult
	for i := range req.Ops {
		// A long batch re-checks its deadline periodically so a drained
		// or timed-out request stops doing work.
		if i&0x1ff == 0 {
			if err := r.Context().Err(); err != nil {
				return nil, errf(http.StatusServiceUnavailable, "request deadline exceeded at op %d of %d", i, len(req.Ops))
			}
		}
		if herr := x.exec(i, &req.Ops[i], &res); herr != nil {
			return nil, herr
		}
		results = append(results, res.toBatchResult())
	}
	return &BatchResponse{
		Machine:        me.name,
		Use:            use,
		Representation: rep,
		Backend:        x.backend,
		II:             req.II,
		Results:        results,
		Counters:       *x.mod.Counters(),
	}, nil
}
