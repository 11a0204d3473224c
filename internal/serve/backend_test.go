package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/query"
)

// TestBatchBackendSelection pins the representation routing of
// /v1/batch: the pinned bitvector backend answers exactly like the
// reference discrete backend and reports itself; "auto" reports the
// backend the selection rule picks for the same description; "fsa" is
// not a served representation and gets a 400 naming the valid ones.
func TestBatchBackendSelection(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ops := []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "check_with_alt", Op: 0, Cycle: 0},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 16},
		{Fn: "first_free_alt", Op: 0, Lo: 0, Hi: 16},
		{Fn: "free", Op: 0, Cycle: 0, ID: 1},
	}

	results := map[string]string{}
	for _, rep := range []string{"discrete", "bitvector"} {
		rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Representation: rep, Ops: ops})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rep, rec.Code, rec.Body.String())
		}
		resp := decodeBody[BatchResponse](t, rec)
		if resp.Backend != rep {
			t.Errorf("%s: backend %q, want the pinned representation", rep, resp.Backend)
		}
		raw, err := json.Marshal(resp.Results)
		if err != nil {
			t.Fatal(err)
		}
		results[rep] = string(raw)
	}
	if results["bitvector"] != results["discrete"] {
		t.Errorf("backends disagree on the same sequence:\ndiscrete:  %s\nbitvector: %s",
			results["discrete"], results["bitvector"])
	}

	// "auto" serves the rule's choice and reports it.
	rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Representation: "auto", Ops: ops})
	if rec.Code != http.StatusOK {
		t.Fatalf("auto: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[BatchResponse](t, rec)
	sel, err := query.Select(s.lookup("ex").expandedFor("reduced"), query.Policy{Representation: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Backend != sel.Backend {
		t.Errorf("auto: served backend %q, selection layer picked %q", resp.Backend, sel.Backend)
	}
	if raw, _ := json.Marshal(resp.Results); string(raw) != results["discrete"] {
		t.Errorf("auto answers differ from discrete:\n%s\nvs\n%s", raw, results["discrete"])
	}

	// The pair automaton is a library comparator, not a served backend.
	rec = post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Representation: "fsa",
		Ops: []BatchOp{{Fn: "check"}}})
	assertBadRepresentation(t, rec, "batch fsa")

	// "auto" serves the schedule op: its per-II arenas re-select under
	// the same rule.
	rec = post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Representation: "auto",
		Ops: []BatchOp{{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0, 1}, Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 2}}}}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("auto schedule op: status %d: %s", rec.Code, rec.Body.String())
	}
	if r := decodeBody[BatchResponse](t, rec).Results[0]; r.OK == nil || !*r.OK {
		t.Errorf("auto schedule op did not schedule: %+v", r)
	}
}

// TestSessionAndStreamBackend pins backend reporting on the stateful
// endpoints: session create/info carry the concrete backend, and the
// stream trailer names the backend that served the conversation.
func TestSessionAndStreamBackend(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	si := createSession(t, h, SessionRequest{Machine: "ex", Representation: "bitvector"})
	if si.Representation != "bitvector" || si.Backend != "bitvector" {
		t.Errorf("bitvector session: rep %q backend %q", si.Representation, si.Backend)
	}
	lines := postStream(t, ts.URL, si.SessionID, []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 16},
	})
	var tr streamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Done {
		t.Fatalf("trailer %s (err %v)", lines[len(lines)-1], err)
	}
	if tr.Backend != "bitvector" {
		t.Errorf("stream trailer backend %q, want bitvector", tr.Backend)
	}
	if tr.Counters.CheckCalls == 0 || tr.Counters.AssignCalls != 1 || tr.Counters.FirstFreeCalls != 1 {
		t.Errorf("bitvector session counters not threaded: %+v", tr.Counters)
	}
	info := decodeBody[SessionInfo](t, get(t, h, "/v1/sessions/"+si.SessionID))
	if info.Backend != "bitvector" {
		t.Errorf("session info backend %q, want bitvector", info.Backend)
	}

	sel, err := query.Select(s.lookup("ex").expandedFor("reduced"), query.Policy{Representation: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	si = createSession(t, h, SessionRequest{Machine: "ex", Representation: "auto"})
	if si.Representation != "auto" || si.Backend != sel.Backend {
		t.Errorf("auto session: rep %q backend %q, selection layer picked %q",
			si.Representation, si.Backend, sel.Backend)
	}

	rec := post(t, h, "/v1/sessions", SessionRequest{Machine: "ex", Representation: "fsa"})
	assertBadRepresentation(t, rec, "session fsa")
}

// assertBadRepresentation requires a 400 whose message names every
// served representation.
func assertBadRepresentation(t *testing.T, rec *httptest.ResponseRecorder, what string) {
	t.Helper()
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "discrete, bitvector or auto") {
		t.Errorf("%s: status %d, want 400 naming discrete, bitvector or auto (%s)", what, rec.Code, rec.Body.String())
	}
}
