package serve

import (
	"encoding/json"
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

	// lock is a context-aware mutex: one buffered slot, held for the
	// duration of each ops/stream request touching the session.
	lock chan struct{}
	// x (the op executor: module, live instances) is guarded by lock;
	// its use, policy and backend are fixed at creation.
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
type SessionOpsResponse = sessionOpsResponse[[]BatchResult]

// sessionOpsResponse is the ops response over the type of its results,
// as batchResponse is for batches.
type sessionOpsResponse[R any] struct {
	SessionID string         `json:"session_id"`
	Results   R              `json:"results"`
	Counters  query.Counters `json:"counters"`
}

func (sess *Session) info(includeCounters bool, now time.Time) SessionInfo {
	si := SessionInfo{
		SessionID:      sess.id,
		Machine:        sess.machine,
		Use:            sess.x.use,
		Representation: sess.x.pol.Representation,
		Backend:        sess.x.backend,
		II:             sess.x.pol.II,
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
	if n := s.sessions.RemoveIf(func(sess *Session) bool { return sess.lastUse.Load() < deadline }); n > 0 {
		obs.Add("serve.sessions.expired", int64(n))
	}
}

// lookupSession returns the live session under id, expiring it lazily:
// a session found idle past the TTL is removed and reported as 410 Gone
// (vs 404 for an id that was never, or is no longer, resident).
func (s *Server) lookupSession(id string) (*Session, *httpError) {
	sess, ok := s.sessions.Get(id)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown session %q (open one via POST /v1/sessions)", id)
	}
	if ttl := s.cfg.SessionTTL; ttl > 0 {
		if s.now().UnixNano()-sess.lastUse.Load() > int64(ttl) {
			if _, removed := s.sessions.Remove(id); removed {
				obs.Inc("serve.sessions.expired")
			}
			return nil, errf(http.StatusGone, "session %q expired after %s idle", id, ttl)
		}
	}
	return sess, nil
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	me := s.lookup(req.Machine)
	if me == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q (register it via /v1/reduce)", req.Machine))
		return
	}
	x, herr := s.buildModule(me, req.Use, req.Representation, req.K, req.WordBits, req.II)
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	s.expireSessions()
	now := s.now()
	sess := &Session{
		id:      fmt.Sprintf("s-%06d", s.sessionSeq.Add(1)),
		machine: me.name,
		lock:    make(chan struct{}, 1),
		x:       x,
	}
	sess.lastUse.Store(now.UnixNano())
	if n := s.sessions.Put(sess.id, sess); n > 0 {
		obs.Add("serve.sessions.evictions", int64(n))
	}
	obs.Inc("serve.sessions.created")
	writeJSON(w, http.StatusOK, sess.info(false, now))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.expireSessions()
	now := s.now()
	sessions := s.sessions.Values()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, sess.info(false, now))
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
	sess, ok := s.sessions.Remove(id)
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

	results, herr := runOps(r.Context(), sess.x, req.Ops)
	sess.touch(s.now())
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	sess.ops.Add(int64(len(req.Ops)))
	obs.Add("serve.session.ops", int64(len(req.Ops)))
	writeJSON(w, http.StatusOK, &sessionOpsResponse[json.RawMessage]{
		SessionID: sess.id,
		Results:   results,
		Counters:  *sess.x.mod.Counters(),
	})
}

// touch refreshes the session's idle clock.
func (sess *Session) touch(now time.Time) { sess.lastUse.Store(now.UnixNano()) }
