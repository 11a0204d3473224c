package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/obs"
	"repro/internal/query"
)

func doReq(t *testing.T, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// TestOpResultJSONMatchesMarshal pins the manual NDJSON writer to the
// wire format: appendJSON must be byte-identical to json.Marshal of the
// equivalent BatchResult for every field combination, or streamed
// sessions silently diverge from one-shot batches.
func TestOpResultJSONMatchesMarshal(t *testing.T) {
	cases := []opResult{
		{},
		{hasOK: true, ok: true},
		{hasOK: true, ok: false},
		{hasOK: true, ok: true, hasAlt: true, alt: 0},
		{hasOK: true, ok: true, hasAlt: true, alt: 3},
		{hasOK: true, ok: true, hasCycle: true, cycle: 7},
		{hasOK: true, ok: true, hasCycle: true, cycle: -12},
		{hasOK: true, ok: true, hasAlt: true, alt: 2, hasCycle: true, cycle: 5},
		{evicted: []int{4}},
		{evicted: []int{9, 1, 30000}},
		{hasOK: true, ok: false, hasAlt: true, alt: -1, hasCycle: true, cycle: 1 << 30, evicted: []int{0, 2}},
		// Schedule-op shapes: proven optimal, fallback (no schedule),
		// the ims engine (no proven/fallback), failure, and empty
		// schedule slices (must be omitted like evicted).
		{hasOK: true, ok: true, hasSched: true, ii: 4, mii: 3, hasProven: true, proven: true, times: []int{0, 2, 5}, alts: []int{1, 0, 2}},
		{hasOK: true, ok: true, hasSched: true, ii: 9, mii: 7, hasProven: true, fallback: true, times: []int{0}, alts: []int{0}},
		{hasOK: true, ok: false, hasSched: true, mii: 7, hasProven: true, fallback: true},
		{hasOK: true, ok: true, hasSched: true, ii: 2, mii: 2, times: []int{0, 1}, alts: []int{3, 4}},
		{hasOK: true, ok: true, hasSched: true, ii: 1, mii: 1, times: []int{}, alts: nil},
		{hasSched: true, mii: 12},
	}
	for i, r := range cases {
		got := r.appendJSON(nil)
		want, err := json.Marshal(r.toBatchResult())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: appendJSON %s != json.Marshal %s", i, got, want)
		}
	}
}

func createSession(t *testing.T, h http.Handler, req SessionRequest) SessionInfo {
	t.Helper()
	rec := post(t, h, "/v1/sessions", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("session create: status %d: %s", rec.Code, rec.Body.String())
	}
	return *decodeBody[SessionInfo](t, rec)
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	si := createSession(t, h, SessionRequest{Machine: "ex"})
	if si.SessionID == "" || si.Machine != "ex" || si.Use != "reduced" || si.Representation != "discrete" {
		t.Fatalf("implausible session info: %+v", si)
	}

	// State persists across ops requests: the assign from the first
	// request is visible to the check in the second.
	rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ops: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[SessionOpsResponse](t, rec)
	if len(resp.Results) != 2 || resp.Results[0].OK == nil || !*resp.Results[0].OK {
		t.Fatalf("first ops response: %+v", resp)
	}
	resp = decodeBody[SessionOpsResponse](t, post(t, h, "/v1/sessions/"+si.SessionID+"/ops",
		SessionOpsRequest{Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: 0}}}))
	if resp.Results[0].OK == nil || *resp.Results[0].OK {
		t.Fatal("assign from previous ops request not visible: session state did not persist")
	}
	if resp.Counters.AssignCalls != 1 {
		t.Errorf("cumulative counters not threaded: %+v", resp.Counters)
	}

	// Info includes cumulative op count and counters.
	info := decodeBody[SessionInfo](t, doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID))
	if info.Ops != 3 || info.Counters == nil || info.Counters.CheckCalls < 2 {
		t.Errorf("session info after 3 ops: %+v (counters %+v)", info, info.Counters)
	}

	// The list shows it; delete removes it; everything after is 404.
	var list struct{ Sessions []SessionInfo }
	if got := decodeBody[struct{ Sessions []SessionInfo }](t, doReq(t, h, http.MethodGet, "/v1/sessions")); len(got.Sessions) != 1 {
		t.Errorf("session list has %d entries, want 1", len(got.Sessions))
	} else {
		list = *got
	}
	if list.Sessions[0].SessionID != si.SessionID {
		t.Errorf("list returned %q, want %q", list.Sessions[0].SessionID, si.SessionID)
	}
	if rec := doReq(t, h, http.MethodDelete, "/v1/sessions/"+si.SessionID); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	for _, probe := range []*httptest.ResponseRecorder{
		doReq(t, h, http.MethodDelete, "/v1/sessions/"+si.SessionID),
		doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID),
		post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}}),
	} {
		if probe.Code != http.StatusNotFound {
			t.Errorf("deleted session answered %d, want 404: %s", probe.Code, probe.Body.String())
		}
	}
}

func TestSessionCreateValidation(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for name, tc := range map[string]struct {
		req  SessionRequest
		want int
	}{
		"unknown machine": {SessionRequest{Machine: "nope"}, http.StatusNotFound},
		"bad use":         {SessionRequest{Machine: "ex", Use: "both"}, http.StatusBadRequest},
		"bad rep":         {SessionRequest{Machine: "ex", Representation: "automaton"}, http.StatusBadRequest},
		"negative ii":     {SessionRequest{Machine: "ex", II: -1}, http.StatusBadRequest},
		"bad bitvector k": {SessionRequest{Machine: "ex", Representation: "bitvector", K: 500}, http.StatusBadRequest},
	} {
		if rec := post(t, h, "/v1/sessions", tc.req); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestSessionOpsApplyUpToError pins the stateful-session error contract:
// a mid-batch 4xx leaves the ops before the failing one applied.
func TestSessionOpsApplyUpToError(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	si := createSession(t, h, SessionRequest{Machine: "ex"})

	rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "peek"}, // invalid fn
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad fn mid-batch: status %d, want 400", rec.Code)
	}
	resp := decodeBody[SessionOpsResponse](t, post(t, h, "/v1/sessions/"+si.SessionID+"/ops",
		SessionOpsRequest{Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: 0}}}))
	if resp.Results[0].OK == nil || *resp.Results[0].OK {
		t.Fatal("assign before the failing op was rolled back; sessions must keep applied ops")
	}
}

// TestSessionTTLInjectedClock drives idle expiry entirely through the
// server's injectable clock — no wall-clock sleeps.
func TestSessionTTLInjectedClock(t *testing.T) {
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)
	expired := obs.Default().Counter("serve.sessions.expired")

	s := New(Config{SessionTTL: time.Minute})
	now := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return now }
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	si := createSession(t, h, SessionRequest{Machine: "ex"})

	// Activity within the TTL keeps it alive and resets the idle clock.
	now = now.Add(50 * time.Second)
	if rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}}); rec.Code != http.StatusOK {
		t.Fatalf("ops at 50s idle: status %d", rec.Code)
	}
	now = now.Add(50 * time.Second)
	if rec := doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID); rec.Code != http.StatusOK {
		t.Fatalf("info at 50s idle after touch: status %d", rec.Code)
	}

	// Past the TTL a lookup lazily expires it: 410 Gone, not 404.
	before := expired.Value()
	now = now.Add(61 * time.Second)
	if rec := doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID); rec.Code != http.StatusGone {
		t.Fatalf("lookup past TTL: status %d, want 410: %s", rec.Code, rec.Body.String())
	}
	if got := expired.Value() - before; got != 1 {
		t.Errorf("serve.sessions.expired advanced by %d, want 1", got)
	}
	// Once expired the id is simply unknown.
	if rec := doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID); rec.Code != http.StatusNotFound {
		t.Errorf("second lookup of expired id: status %d, want 404", rec.Code)
	}

	// The list endpoint sweeps: two idle sessions vanish together.
	a := createSession(t, h, SessionRequest{Machine: "ex"})
	b := createSession(t, h, SessionRequest{Machine: "ex"})
	now = now.Add(2 * time.Minute)
	list := decodeBody[struct{ Sessions []SessionInfo }](t, doReq(t, h, http.MethodGet, "/v1/sessions"))
	if len(list.Sessions) != 0 {
		t.Errorf("list after TTL sweep: %d sessions resident (%s, %s)", len(list.Sessions), a.SessionID, b.SessionID)
	}

	// SessionTTL < 0 disables expiry entirely.
	s2 := New(Config{SessionTTL: -1})
	now2 := time.Unix(1_700_000_000, 0)
	s2.now = func() time.Time { return now2 }
	if _, err := s2.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h2 := s2.Handler()
	si2 := createSession(t, h2, SessionRequest{Machine: "ex"})
	now2 = now2.Add(10 * 365 * 24 * time.Hour)
	if rec := doReq(t, h2, http.MethodGet, "/v1/sessions/"+si2.SessionID); rec.Code != http.StatusOK {
		t.Errorf("session with disabled TTL expired after a decade idle: status %d", rec.Code)
	}
}

// TestSessionTableBounded registers cap+N sessions and asserts residency
// <= cap with oldest-evicted-first (single shard makes global LRU order
// exact), plus LRU — not FIFO — replacement after a touch.
func TestSessionTableBounded(t *testing.T) {
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)
	evictions := obs.Default().Counter("serve.sessions.evictions")

	s := New(Config{MaxSessions: 3, Shards: 1})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	before := evictions.Value()
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = createSession(t, h, SessionRequest{Machine: "ex"}).SessionID
	}
	if got := evictions.Value() - before; got != 2 {
		t.Errorf("serve.sessions.evictions advanced by %d, want 2", got)
	}
	wantResident := func(want ...string) {
		t.Helper()
		list := decodeBody[struct{ Sessions []SessionInfo }](t, doReq(t, h, http.MethodGet, "/v1/sessions"))
		var got []string
		for _, si := range list.Sessions {
			got = append(got, si.SessionID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("resident sessions %v, want %v", got, want)
		}
	}
	// Oldest evicted first: 1 and 2 went, 3..5 remain.
	wantResident(ids[2], ids[3], ids[4])

	// A touch reorders: after using ids[2], the next create evicts
	// ids[3], not ids[2].
	if rec := post(t, h, "/v1/sessions/"+ids[2]+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}}); rec.Code != http.StatusOK {
		t.Fatalf("touch ops: status %d", rec.Code)
	}
	id6 := createSession(t, h, SessionRequest{Machine: "ex"}).SessionID
	wantResident(ids[2], ids[4], id6)

	// Default shard count: order is approximate but the bound holds.
	s2 := New(Config{MaxSessions: 4})
	if _, err := s2.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h2 := s2.Handler()
	for i := 0; i < 20; i++ {
		createSession(t, h2, SessionRequest{Machine: "ex"})
	}
	if got := s2.sessions.len(); got > 4 {
		t.Errorf("sharded session table resident %d > capacity 4", got)
	}
}

// TestRegistryBounded is the unbounded-registry regression test: before
// this PR, Server's machine map grew without limit under unique-name
// /v1/reduce spam. Now cap+N registrations keep residency <= cap,
// oldest-evicted-first, counted by serve.registry.evictions — via both
// insert paths (Register and the /v1/reduce handler share putMachine).
func TestRegistryBounded(t *testing.T) {
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)
	evictions := obs.Default().Counter("serve.registry.evictions")

	s := New(Config{MaxMachines: 3, Shards: 1})
	h := s.Handler()
	before := evictions.Value()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := s.Register(name, machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
			t.Fatal(err)
		}
	}
	if got := evictions.Value() - before; got != 2 {
		t.Errorf("serve.registry.evictions advanced by %d, want 2", got)
	}
	wantResident := func(want ...string) {
		t.Helper()
		list := decodeBody[struct{ Machines []MachineInfo }](t, get(t, h, "/v1/machines"))
		var got []string
		for _, mi := range list.Machines {
			got = append(got, mi.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("resident machines %v, want %v", got, want)
		}
	}
	wantResident("m2", "m3", "m4")

	// Batch traffic touches its machine, protecting it from eviction.
	if rec := post(t, h, "/v1/batch", BatchRequest{Machine: "m2", Ops: []BatchOp{{Fn: "check"}}}); rec.Code != http.StatusOK {
		t.Fatalf("batch touch: status %d", rec.Code)
	}
	// The /v1/reduce insert path obeys the same cap and counter.
	rec := post(t, h, "/v1/reduce", ReduceRequest{Name: "m5", MDL: mdl.Print(machines.Example())})
	if rec.Code != http.StatusOK {
		t.Fatalf("reduce: status %d: %s", rec.Code, rec.Body.String())
	}
	wantResident("m2", "m4", "m5")

	// Evicting a machine never breaks sessions already built on it.
	si := createSession(t, h, SessionRequest{Machine: "m5"})
	for i := 6; i < 10; i++ {
		if _, err := s.Register(fmt.Sprintf("m%d", i), machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
			t.Fatal(err)
		}
	}
	if s.lookup("m5") != nil {
		t.Fatal("m5 should have been evicted by now")
	}
	if rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}}); rec.Code != http.StatusOK {
		t.Errorf("session on evicted machine: status %d, want 200 (modules outlive registry entries)", rec.Code)
	}

	// Default shard count: the bound holds under spam.
	s2 := New(Config{MaxMachines: 4})
	for i := 0; i < 12; i++ {
		if _, err := s2.Register(fmt.Sprintf("spam%d", i), machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.machines.len(); got > 4 {
		t.Errorf("sharded registry resident %d > capacity 4", got)
	}
}

// TestSessionsConcurrentHammer drives session create / ops / stream /
// list / delete and registry eviction from 8 goroutines; run under
// -race (make check does) it pins the sharded tables' and sessions'
// locking. Status codes may legitimately be 404/410/429 when a
// neighbour evicts or holds a session; only 5xx is a failure.
func TestSessionsConcurrentHammer(t *testing.T) {
	s := New(Config{MaxSessions: 6, MaxMachines: 4, Shards: 2, SessionTTL: time.Minute})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := post(t, h, "/v1/sessions", SessionRequest{Machine: "ex"})
				if rec.Code >= 500 {
					errs <- fmt.Sprintf("create: %d %s", rec.Code, rec.Body.String())
					return
				}
				if rec.Code != http.StatusOK {
					continue
				}
				id := decodeBody[SessionInfo](t, rec).SessionID
				for _, req := range []*httptest.ResponseRecorder{
					post(t, h, "/v1/sessions/"+id+"/ops", SessionOpsRequest{Ops: []BatchOp{
						{Fn: "check", Op: 0, Cycle: g},
						{Fn: "first_free", Op: 0, Lo: 0, Hi: 20},
					}}),
					post(t, h, "/v1/sessions/"+id+"/stream",
						[]byte("{\"fn\":\"check\",\"op\":0,\"cycle\":1}\n{\"fn\":\"check_with_alt\",\"op\":0,\"cycle\":2}\n")),
					doReq(t, h, http.MethodGet, "/v1/sessions"),
					doReq(t, h, http.MethodGet, "/v1/machines"),
					doReq(t, h, http.MethodGet, "/healthz"),
				} {
					if req.Code >= 500 {
						errs <- fmt.Sprintf("goroutine %d: %d %s", g, req.Code, req.Body.String())
						return
					}
				}
				if i%8 == g%8 {
					if _, err := s.Register(fmt.Sprintf("hammer-%d-%d", g, i), machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
						errs <- err.Error()
						return
					}
				}
				if i%4 == 0 {
					doReq(t, h, http.MethodDelete, "/v1/sessions/"+id)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, cap := s.sessions.len(), 6; got > cap {
		t.Errorf("session table resident %d > capacity %d after hammer", got, cap)
	}
	if got, cap := s.machines.len(), 4; got > cap {
		t.Errorf("registry resident %d > capacity %d after hammer", got, cap)
	}
}

// TestSessionSteadyStateZeroAlloc pins the tentpole's performance
// contract: once a session's module, live-instance map and result
// buffer are warm, executing ops and encoding their NDJSON result lines
// allocates nothing — on both representations. (JSON op decoding and
// the HTTP layer sit outside the pin; they are per-request, not per-op.)
func TestSessionSteadyStateZeroAlloc(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	me := s.lookup("ex")
	ops := []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "check_with_alt", Op: 0, Cycle: 1},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 32},
		{Fn: "first_free_alt", Op: 0, Lo: 0, Hi: 32},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "free", Op: 0, Cycle: 0, ID: 1},
		{Fn: "assign_free", Op: 0, Cycle: 0, ID: 2},
		{Fn: "assign_free", Op: 0, Cycle: 0, ID: 3}, // evicts 2
		{Fn: "free", Op: 0, Cycle: 0, ID: 3},
	}
	for _, rep := range []string{"discrete", "bitvector"} {
		e, sel, _, repOut, herr := s.buildModule(me, "reduced", rep, 0, 0, 0)
		if herr != nil {
			t.Fatalf("%s: buildModule: %s", rep, herr.msg)
		}
		x := newOpExec(e, me.machineFor("reduced"), sel, query.Policy{Representation: repOut}, s.cfg.MaxCycle)
		var res opResult
		buf := make([]byte, 0, 256)
		run := func() {
			for i := range ops {
				if herr := x.exec(i, &ops[i], &res); herr != nil {
					t.Fatalf("%s: op %d: %s", rep, i, herr.msg)
				}
				buf = res.appendJSON(buf[:0])
			}
		}
		run() // warm the live map, eviction scratch and line buffer
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: steady-state session ops allocate %.1f allocs/run, want 0", rep, allocs)
		}
	}
}
