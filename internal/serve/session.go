package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// Session is one stateful scheduling session: a long-lived query module
// (and the partial-schedule state around it) that a remote scheduler
// converses with across many requests, instead of rebuilding a fresh
// module per batch. The paper's premise is that a reduced description
// answers the scheduler's whole query stream cheaply; a session is that
// query stream's server-side endpoint. Sessions live in the server's
// LRU table, bounded by Config.MaxSessions and expired after
// Config.SessionTTL idle time.
//
// All op execution on a session is serialized through its lock channel
// (acquired with the request's context, so a waiter times out rather
// than queueing forever); the module itself is single-threaded state.
type Session struct {
	id      string
	machine string
	use     string
	rep     string
	ii      int

	// lock is a context-aware mutex: one buffered slot, held for the
	// duration of each ops/stream request touching the session.
	lock chan struct{}
	// x (the op executor: module, live instances) is guarded by lock.
	x *opExec

	// ops counts executed ops; lastUse is the idle clock (unix nanos),
	// both readable without the lock for listings and TTL sweeps.
	ops     atomic.Int64
	lastUse atomic.Int64
}

// acquire serializes op execution on the session, honouring ctx.
func (sess *Session) acquire(r *http.Request) *httpError {
	select {
	case sess.lock <- struct{}{}:
		return nil
	default:
	}
	select {
	case sess.lock <- struct{}{}:
		return nil
	case <-r.Context().Done():
		return errf(http.StatusTooManyRequests, "session %s busy: another request holds it and the deadline expired", sess.id)
	}
}

func (sess *Session) release() { <-sess.lock }

// SessionRequest is the body of POST /v1/sessions. The module
// configuration fields mean exactly what they mean on a batch request;
// the difference is lifetime — the module built here survives until the
// session is deleted, evicted or expires.
type SessionRequest struct {
	// Machine names a registered description (see /v1/reduce).
	Machine string `json:"machine"`
	// Use selects "reduced" (default) or "original" description.
	Use string `json:"use,omitempty"`
	// Representation selects "discrete" (default), "bitvector" or
	// "auto" (the bitvector when the description fits the word, else
	// discrete).
	Representation string `json:"representation,omitempty"`
	// K is the bitvector packing (cycles per word); 0 selects the
	// densest legal packing.
	K int `json:"k,omitempty"`
	// WordBits is the bitvector word size, 32 or 64 (0 selects 64).
	WordBits int `json:"word_bits,omitempty"`
	// II selects a Modulo Reservation Table with II columns; 0 selects a
	// linear reserved table.
	II int `json:"ii,omitempty"`
}

// SessionInfo describes one session (create response, GET info, list
// entries). Backend is the concrete backend serving the session's
// module (the rule's choice under "auto"). Counters is included on
// single-session GETs only.
type SessionInfo struct {
	SessionID      string          `json:"session_id"`
	Machine        string          `json:"machine"`
	Use            string          `json:"use"`
	Representation string          `json:"representation"`
	Backend        string          `json:"backend"`
	II             int             `json:"ii"`
	Ops            int64           `json:"ops"`
	IdleMS         int64           `json:"idle_ms"`
	Counters       *query.Counters `json:"counters,omitempty"`
}

// SessionOpsRequest is the body of POST /v1/sessions/{id}/ops.
type SessionOpsRequest struct {
	Ops []BatchOp `json:"ops"`
}

// SessionOpsResponse is the body of a successful ops request. Results
// answer this request's ops; Counters are the session's cumulative
// work-unit accounting since creation. On a 4xx mid-request, ops before
// the failing one remain applied (the session is stateful; the error
// body names the failing op index).
type SessionOpsResponse struct {
	SessionID string         `json:"session_id"`
	Results   []BatchResult  `json:"results"`
	Counters  query.Counters `json:"counters"`
}

func (sess *Session) info(includeCounters bool, now time.Time) SessionInfo {
	si := SessionInfo{
		SessionID:      sess.id,
		Machine:        sess.machine,
		Use:            sess.use,
		Representation: sess.rep,
		Backend:        sess.x.backend,
		II:             sess.ii,
		Ops:            sess.ops.Load(),
		IdleMS:         (now.UnixNano() - sess.lastUse.Load()) / int64(time.Millisecond),
	}
	if si.IdleMS < 0 {
		si.IdleMS = 0
	}
	if includeCounters {
		c := *sess.x.mod.Counters()
		si.Counters = &c
	}
	return si
}

// expireSessions sweeps the session table, dropping sessions idle past
// the TTL. Called from session create and list handlers (lookups expire
// lazily), so an idle-heavy workload still converges to empty.
func (s *Server) expireSessions() {
	ttl := s.cfg.SessionTTL
	if ttl <= 0 {
		return
	}
	deadline := s.now().Add(-ttl).UnixNano()
	for range s.sessions.removeIf(func(_ string, sess *Session) bool {
		return sess.lastUse.Load() < deadline
	}) {
		obs.Inc("serve.sessions.expired")
	}
}

// lookupSession returns the live session under id, expiring it lazily:
// a session found idle past the TTL is removed and reported as 410 Gone
// (vs 404 for an id that was never, or is no longer, resident).
func (s *Server) lookupSession(id string) (*Session, *httpError) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown session %q (open one via POST /v1/sessions)", id)
	}
	if ttl := s.cfg.SessionTTL; ttl > 0 {
		if s.now().UnixNano()-sess.lastUse.Load() > int64(ttl) {
			if _, removed := s.sessions.remove(id); removed {
				obs.Inc("serve.sessions.expired")
			}
			return nil, errf(http.StatusGone, "session %q expired after %s idle", id, ttl)
		}
	}
	return sess, nil
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.sessions.create.requests")
	var req SessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	me := s.lookup(req.Machine)
	if me == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q (register it via /v1/reduce)", req.Machine))
		return
	}
	e, sel, use, rep, herr := s.buildModule(me, req.Use, req.Representation, req.K, req.WordBits, req.II)
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	s.expireSessions()
	now := s.now()
	pol := query.Policy{Representation: rep, II: req.II, K: req.K, WordBits: req.WordBits}
	sess := &Session{
		id:      fmt.Sprintf("s-%06d", s.sessionSeq.Add(1)),
		machine: me.name,
		use:     use,
		rep:     rep,
		ii:      req.II,
		lock:    make(chan struct{}, 1),
		x:       newOpExec(e, me.machineFor(use), sel, pol, s.cfg.MaxCycle),
	}
	sess.lastUse.Store(now.UnixNano())
	for range s.sessions.put(sess.id, sess) {
		obs.Inc("serve.sessions.evictions")
	}
	obs.Inc("serve.sessions.created")
	writeJSON(w, http.StatusOK, sess.info(false, now))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.expireSessions()
	now := s.now()
	items := s.sessions.items()
	infos := make([]SessionInfo, 0, len(items))
	for _, it := range items {
		infos = append(infos, it.val.info(false, now))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].SessionID < infos[j].SessionID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, herr := s.lookupSession(r.PathValue("id"))
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	// Counters are read under the session lock so a concurrent stream
	// cannot tear the snapshot.
	if herr := sess.acquire(r); herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	si := sess.info(true, s.now())
	sess.release()
	writeJSON(w, http.StatusOK, si)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessions.remove(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	// An in-flight ops/stream request holding the session finishes
	// normally on its own module pointer; the table just forgets the id.
	obs.Inc("serve.sessions.deleted")
	writeJSON(w, http.StatusOK, map[string]any{"deleted": sess.id, "ops": sess.ops.Load()})
}

func (s *Server) handleSessionOps(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.session.ops.requests")
	start := time.Now()
	defer func() { obs.Observe("serve.session.ops.latency", time.Since(start).Microseconds()) }()
	var req SessionOpsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Ops) > s.cfg.MaxBatchOps {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("request has %d ops, limit %d", len(req.Ops), s.cfg.MaxBatchOps))
		return
	}
	sess, herr := s.lookupSession(r.PathValue("id"))
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	if herr := sess.acquire(r); herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	defer sess.release()

	results := make([]BatchResult, 0, len(req.Ops))
	var res opResult
	for i := range req.Ops {
		if i&0x1ff == 0 {
			if err := r.Context().Err(); err != nil {
				sess.touch(s.now())
				writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("request deadline exceeded at op %d of %d", i, len(req.Ops)))
				return
			}
		}
		if herr := sess.x.exec(i, &req.Ops[i], &res); herr != nil {
			sess.touch(s.now())
			writeErr(w, herr.status, herr.msg)
			return
		}
		results = append(results, res.toBatchResult())
	}
	sess.ops.Add(int64(len(req.Ops)))
	obs.Add("serve.session.ops", int64(len(req.Ops)))
	sess.touch(s.now())
	writeJSON(w, http.StatusOK, &SessionOpsResponse{
		SessionID: sess.id,
		Results:   results,
		Counters:  *sess.x.mod.Counters(),
	})
}

// touch refreshes the session's idle clock.
func (sess *Session) touch(now time.Time) { sess.lastUse.Store(now.UnixNano()) }
