// Package serve implements the machine-description service behind
// cmd/mdserve: a stdlib-only net/http JSON daemon that compiles, caches
// and serves reduced machine descriptions, batched contention-query
// sequences, and stateful scheduling sessions that hold a long-lived
// query module per remote scheduler.
//
// Endpoints:
//
//	POST /v1/reduce    submit an MDL machine description; reduce it
//	                   (through the capacity-bounded reduction LRU),
//	                   register it under a name, return reduction stats
//	                   plus the reduced description.
//	POST /v1/batch     run a check/assign/assign&free/free/check-with-alt
//	                   sequence against a registered description, on the
//	                   discrete or bitvector representation, linear or
//	                   modulo, original or reduced. Each batch runs on a
//	                   fresh module.
//	POST /v1/sessions  open a scheduling session: a long-lived query
//	                   module (plus its partial-schedule state) that
//	                   subsequent op requests converse with.
//	POST /v1/sessions/{id}/ops     run a JSON op batch on the session's
//	                               live module; state persists.
//	POST /v1/sessions/{id}/stream  NDJSON streaming mode: one op per
//	                               request line, one result per response
//	                               line, flushed incrementally.
//	GET    /v1/sessions      list open sessions.
//	GET    /v1/sessions/{id} one session's shape, ops total and counters.
//	DELETE /v1/sessions/{id} close a session.
//	GET  /v1/machines  list registered descriptions.
//	GET  /v1/metrics   internal/obs snapshot of the whole process.
//	GET  /healthz      liveness plus cache/registry/session shape.
//
// The machine registry and the session table are LRU tables (the
// shared internal/lru table, as is the reduction cache): both are capacity-bounded, so unique-name reduce
// spam or session-open spam evicts oldest entries instead of growing
// the process without limit. Idle sessions additionally expire after a
// TTL.
//
// The expensive endpoints (/v1/reduce, /v1/batch, session create, ops
// and stream) pass through one route wrapper (route): it counts and
// times each request (serve.<route>.requests and .latency), sets the
// per-request deadline, admits it through a concurrency-limiting gate
// (parallel.Gate) or answers 429, and caps the body. Streams are
// admitted through the gate's reserved stream sub-quota so open
// conversations can never starve one-shot requests. Batches and session
// ops share one op loop (runOps) and every result is written by one
// encoder (opResult.appendJSON). Errors are JSON
// {"error": "..."} with a 4xx status for every malformed or
// semantically invalid request — the server never panics on client
// input (pinned by FuzzServeBatchDecode).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/mdl"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/resmodel"
)

// Config shapes a Server. Zero values select production defaults.
type Config struct {
	// CacheCapacity bounds the server's reduction LRU (entries, not
	// bytes). 0 selects core.DefaultCacheCapacity; < 0 means unbounded.
	CacheCapacity int
	// MaxInFlight caps concurrently admitted reduce/batch requests.
	// 0 selects 2×GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout is the per-request deadline (admission wait plus
	// execution). 0 selects 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxBatchOps caps the ops in one batch request. 0 selects 65536.
	MaxBatchOps int
	// MaxCycle caps schedule cycles on linear reserved tables (modulo
	// tables fold and need no cap). 0 selects 1<<20.
	MaxCycle int
	// MaxMachines bounds the machine registry (registered descriptions,
	// LRU-evicted beyond the cap). 0 selects 256; < 0 means unbounded.
	MaxMachines int
	// MaxSessions bounds the scheduling-session table (LRU-evicted
	// beyond the cap). 0 selects 1024; < 0 means unbounded.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (lazily, on
	// lookup and on session create/list sweeps). 0 selects 5m; < 0
	// disables expiry.
	SessionTTL time.Duration
	// MaxStreamOps caps the ops accepted on one /stream request.
	// 0 selects 1<<20.
	MaxStreamOps int
}

func (c Config) withDefaults() Config {
	if c.CacheCapacity == 0 {
		c.CacheCapacity = core.DefaultCacheCapacity
	}
	if c.CacheCapacity < 0 {
		c.CacheCapacity = 0 // unbounded for the LRU itself
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchOps == 0 {
		c.MaxBatchOps = 65536
	}
	if c.MaxCycle == 0 {
		c.MaxCycle = 1 << 20
	}
	if c.MaxMachines == 0 {
		c.MaxMachines = 256
	}
	if c.MaxMachines < 0 {
		c.MaxMachines = 0 // unbounded for the table itself
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.SessionTTL < 0 {
		c.SessionTTL = 0 // no expiry
	}
	if c.MaxStreamOps == 0 {
		c.MaxStreamOps = 1 << 20
	}
	return c
}

// machineEntry is one registered machine description: the parsed
// machine, its expansion, its verified reduction and the reduction's
// machine (built once here, not per request, for the schedule op).
type machineEntry struct {
	name     string
	src      *resmodel.Machine
	expanded *resmodel.Expanded
	red      *core.Result
	redM     *resmodel.Machine
}

// Server holds the machine registry, the scheduling-session table, the
// reduction LRU and the admission gate. Construct with New; serve with
// Handler.
type Server struct {
	cfg   Config
	cache *core.Cache
	gate  *parallel.Gate

	// machines is the bounded registry of registered
	// descriptions. Evicting an entry never invalidates modules built
	// from it — sessions and in-flight batches keep their pointers; the
	// registry simply forgets the name (exactly the reduction cache's
	// eviction contract).
	machines *lru.Table[string, *machineEntry]
	// sessions is the bounded table of open scheduling
	// sessions, LRU-evicted beyond MaxSessions and TTL-expired when
	// idle.
	sessions   *lru.Table[string, *Session]
	sessionSeq atomic.Uint64

	// now is the session clock, swappable by tests so TTL expiry is
	// testable without wall-clock sleeps.
	now func() time.Time
}

// New returns a Server with the given configuration (zero values select
// defaults; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		cache:    core.NewCacheLRU(cfg.CacheCapacity),
		gate:     parallel.NewGate(cfg.MaxInFlight),
		machines: lru.New[string, *machineEntry](cfg.MaxMachines),
		sessions: lru.New[string, *Session](cfg.MaxSessions),
		now:      time.Now,
	}
}

// Cache exposes the server's reduction LRU (for stats and tests).
func (s *Server) Cache() *core.Cache { return s.cache }

// Register compiles and registers a machine under name (the machine's
// own name if empty), reducing it through the server's cache. Used by
// cmd/mdserve -preload and by tests; HTTP clients register via
// /v1/reduce. Re-registering a name replaces the previous entry.
func (s *Server) Register(name string, m *resmodel.Machine, obj core.Objective) (*core.Result, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	me, _, err := s.register(name, m, obj)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return me.red, nil
}

// register is the one path into the machine registry, shared by
// Register and /v1/reduce: expand m, reduce it through the cache
// (hit reports a cache hit), verify the reduction and file it under
// name (m's own name if empty). One path keeps the registry semantics —
// LRU position, capacity eviction, the serve.registry.evictions
// counter — from diverging between the two entry points.
func (s *Server) register(name string, m *resmodel.Machine, obj core.Objective) (me *machineEntry, hit bool, err error) {
	if name == "" {
		name = m.Name
	}
	e := m.Expand()
	red, hit := s.cache.ReduceTracked(e, obj)
	if err := red.Verify(); err != nil {
		// Unreachable by construction (the reduction theorem); surfaced
		// rather than swallowed in case of an implementation bug.
		return nil, hit, fmt.Errorf("reduction failed verification: %w", err)
	}
	me = &machineEntry{name: name, src: m, expanded: e, red: red, redM: red.Reduced.Machine()}
	if n := s.machines.Put(name, me); n > 0 {
		obs.Add("serve.registry.evictions", int64(n))
	}
	return me, hit, nil
}

// lookup returns the named machine entry (marking it most recently
// used), or nil.
func (s *Server) lookup(name string) *machineEntry {
	me, _ := s.machines.Get(name)
	return me
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reduce", s.route("reduce", false, s.handleReduce))
	mux.HandleFunc("POST /v1/batch", s.route("batch", false, s.handleBatch))
	mux.HandleFunc("POST /v1/sessions", s.route("sessions.create", false, s.handleSessionCreate))
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/ops", s.route("session.ops", false, s.handleSessionOps))
	mux.HandleFunc("POST /v1/sessions/{id}/stream", s.route("stream", true, s.handleSessionStream))
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// route is the one request boundary of the expensive endpoints. It
// counts serve.<name>.requests and times the whole request, admission
// wait included, into serve.<name>.latency (microseconds); sets the
// per-request deadline; takes a gate slot before that deadline, a slot
// of the reserved stream sub-quota when stream is set, or answers 429
// (the service sheds load instead of queueing unboundedly); caps the
// request body; and, for a stream, sets the connection's read deadline
// to the request deadline.
func (s *Server) route(name string, stream bool, h http.HandlerFunc) http.HandlerFunc {
	requests, latency := "serve."+name+".requests", "serve."+name+".latency"
	acquire, release, refusal := s.gate.Acquire, s.gate.Release, "server at capacity: admission deadline exceeded"
	if stream {
		acquire, release, refusal = s.gate.AcquireStream, s.gate.ReleaseStream, "server at capacity: stream admission deadline exceeded"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		obs.Inc(requests)
		start := time.Now()
		defer func() { obs.Observe(latency, time.Since(start).Microseconds()) }()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if err := acquire(ctx); err != nil {
			obs.Inc("serve.rejected")
			writeErr(w, http.StatusTooManyRequests, refusal)
			return
		}
		defer release()
		obs.Inc("serve.admitted")
		if stream {
			// A stream reads its body while it answers; the request
			// deadline also bounds those reads, so a stalled body cannot
			// hold the slot and the session lock until the client leaves.
			dl, _ := ctx.Deadline()
			http.NewResponseController(w).SetReadDeadline(dl)
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	}
}

// ReduceRequest is the body of POST /v1/reduce.
type ReduceRequest struct {
	// Name registers the compiled description under this name; empty
	// selects the machine's own name from the MDL source.
	Name string `json:"name,omitempty"`
	// MDL is the textual machine description (internal/mdl grammar).
	MDL string `json:"mdl"`
	// Objective is "res-uses" (default) or "<k>-cycle-word".
	Objective string `json:"objective,omitempty"`
}

// ReduceResponse reports one registered reduction.
type ReduceResponse struct {
	Name               string `json:"name"`
	CacheHit           bool   `json:"cache_hit"`
	Objective          string `json:"objective"`
	Resources          int    `json:"resources"`
	ReducedResources   int    `json:"reduced_resources"`
	Usages             int    `json:"usages"`
	ReducedUsages      int    `json:"reduced_usages"`
	Ops                int    `json:"ops"`
	ExpandedOps        int    `json:"expanded_ops"`
	Classes            int    `json:"classes"`
	GenSetSize         int    `json:"genset_size"`
	PrunedSize         int    `json:"genset_pruned"`
	ForbiddenLatencies int    `json:"forbidden_latencies"`
	MaxLatency         int    `json:"max_forbidden_latency"`
	ReducedMDL         string `json:"reduced_mdl"`
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	var req ReduceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.MDL) == "" {
		writeErr(w, http.StatusBadRequest, "missing \"mdl\" machine description")
		return
	}
	m, err := mdl.Parse(req.MDL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("mdl: %v", err))
		return
	}
	obj, err := core.ParseObjective(req.Objective)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := r.Context().Err(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "request deadline exceeded before reduction")
		return
	}
	me, hit, err := s.register(req.Name, m, obj)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if hit {
		obs.Inc("serve.reduce.cache_hits")
	}
	red := me.red
	origUses := 0
	for _, o := range me.expanded.Ops {
		origUses += len(o.Table.Uses)
	}
	writeJSON(w, http.StatusOK, &ReduceResponse{
		Name:               me.name,
		CacheHit:           hit,
		Objective:          obj.String(),
		Resources:          len(m.Resources),
		ReducedResources:   red.NumResources(),
		Usages:             origUses,
		ReducedUsages:      red.NumUsages(),
		Ops:                len(m.Ops),
		ExpandedOps:        len(me.expanded.Ops),
		Classes:            red.Classes.NumClasses(),
		GenSetSize:         red.GenSetSize,
		PrunedSize:         red.PrunedSize,
		ForbiddenLatencies: red.ClassMatrix.NonnegCount(),
		MaxLatency:         red.ClassMatrix.MaxLatency(),
		ReducedMDL:         mdl.Print(red.Reduced.Machine()),
	})
}

// MachineInfo is one entry of GET /v1/machines.
type MachineInfo struct {
	Name             string `json:"name"`
	Resources        int    `json:"resources"`
	ReducedResources int    `json:"reduced_resources"`
	Ops              int    `json:"ops"`
	ExpandedOps      int    `json:"expanded_ops"`
	Classes          int    `json:"classes"`
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	entries := s.machines.Values()
	infos := make([]MachineInfo, 0, len(entries))
	for _, me := range entries {
		infos = append(infos, MachineInfo{
			Name:             me.name,
			Resources:        len(me.src.Resources),
			ReducedResources: me.red.NumResources(),
			Ops:              len(me.src.Ops),
			ExpandedOps:      len(me.expanded.Ops),
			Classes:          me.red.Classes.NumClasses(),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"machines": infos})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.Default().WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		obs.Inc("serve.errors")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"machines": s.machines.Len(),
		"registry": map[string]any{
			"resident": s.machines.Len(),
			"capacity": s.cfg.MaxMachines,
		},
		"sessions": map[string]any{
			"resident": s.sessions.Len(),
			"capacity": s.cfg.MaxSessions,
			"ttl_ms":   s.cfg.SessionTTL.Milliseconds(),
		},
		"cache": map[string]any{
			"resident":  s.cache.Len(),
			"capacity":  s.cache.Capacity(),
			"hits":      hits,
			"misses":    misses,
			"evictions": s.cache.Evictions(),
		},
		"in_flight": s.gate.InFlight(),
		"streams":   s.gate.Streams(),
	})
}

// decodeJSON decodes the request body into v, writing a 4xx error and
// returning false on failure. Oversized bodies (MaxBytesReader) map to
// 413, everything else malformed to 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON: %v", err))
		return false
	}
	// One JSON value per request body: trailing data is a client bug and
	// must not be silently ignored.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshalling our own response types cannot fail; keep the
		// handler total anyway.
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	if status >= 400 {
		obs.Inc("serve.errors")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
