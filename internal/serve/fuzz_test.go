package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
)

// FuzzServeBatchDecode throws arbitrary bytes at POST /v1/batch on a
// server with a registered machine and pins the executor's contract:
// the handler never panics and never returns 5xx — every malformed or
// semantically invalid body is answered with a 4xx and a JSON error
// body. (The query modules themselves panic on contract violations such
// as negative linear cycles or assigning over a conflict; opExec.exec must
// pre-validate everything so no input on the wire can reach them.)
func FuzzServeBatchDecode(f *testing.F) {
	s := New(Config{})
	if _, err := s.Register("example", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// A fully valid batch, then targeted mutations of each validation
	// axis: unknown machine, bad use/representation/fn, out-of-range op
	// and cycle indices, negative cycles on a linear table, id misuse
	// (reuse, free-unknown, mismatched free), assign-on-conflict, and
	// structurally broken JSON.
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 4, ID: 1},
		{Fn: "check_with_alt", Op: 0, Cycle: 4},
		{Fn: "free", Op: 0, Cycle: 4, ID: 1},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Use: "original", Representation: "bitvector", II: 3, Ops: []BatchOp{
		{Fn: "assign_free", Op: 1, Cycle: 2, ID: 7},
		{Fn: "assign_free", Op: 1, Cycle: 2, ID: 8},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "nope", Ops: []BatchOp{{Fn: "check"}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Use: "shrunk", Ops: []BatchOp{{Fn: "check"}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "automaton"}))
	// Representation routing: the auto rule, and "fsa" — not a served
	// representation — on check, assign&free, modulo and schedule-op
	// sequences, each of which must get the 400.
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "auto", Ops: []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 4, ID: 1},
		{Fn: "first_free_alt", Op: 0, Lo: 0, Hi: 12},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "fsa", Ops: []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign_free", Op: 0, Cycle: 2, ID: 7},
		{Fn: "assign_free", Op: 0, Cycle: 2, ID: 8},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 12},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "fsa", II: 3, Ops: []BatchOp{{Fn: "check"}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "fsa", Ops: []BatchOp{
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "evict", Op: 0}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "check", Op: 9999}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: -1}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", II: -2, Ops: []BatchOp{{Fn: "check"}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", K: -1, WordBits: 13, Representation: "bitvector"}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "free", Op: 0, Cycle: 0, ID: 42},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
	}}))
	// Range-query seeds: a valid first_free/first_free_alt pair, an empty
	// range (lo > hi), a negative bound on a linear table, a huge bound on
	// a modulo table, and an out-of-range op index.
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 2, ID: 1},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 12},
		{Fn: "first_free_alt", Op: 0, Lo: 3, Hi: 9},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "bitvector", II: 4, Ops: []BatchOp{
		{Fn: "first_free", Op: 1, Lo: -3, Hi: 5},
	}}))
	// Range-query and schedule-op seeds over each backend family: a
	// modulo bitvector, a linear bitvector and the discrete default; and
	// a body carrying the retired "scan" field, which decodes like any
	// unknown field.
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "bitvector", II: 4, Ops: []BatchOp{
		{Fn: "assign_free", Op: 0, Cycle: 1, ID: 1},
		{Fn: "first_free", Op: 1, Lo: 0, Hi: 11},
		{Fn: "first_free_alt", Op: 0, Lo: -2, Hi: 7},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Representation: "bitvector", Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 2, ID: 1},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 12},
		{Fn: "schedule", Scheduler: "ims", Loop: &LoopSpec{Ops: []int{0}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 12},
		{Fn: "first_free_alt", Op: 0, Lo: 3, Hi: 9},
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0, 1}}},
	}}))
	f.Add([]byte(`{"machine":"example","scan":"simd","ops":[{"fn":"check"}]}`))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "first_free", Op: 0, Lo: 9, Hi: 2}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "first_free", Op: 0, Lo: -1, Hi: 5}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", II: 3, Ops: []BatchOp{{Fn: "first_free_alt", Op: 0, Lo: 0, Hi: 1 << 40}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "first_free_alt", Op: 9999, Lo: 0, Hi: 5}}}))
	// Schedule-op seeds: a valid optimal run, an ims run with a budget,
	// then one mutation per validation axis (missing loop, unknown
	// scheduler, bad loop-op index, bad edge endpoint, zero-distance
	// cycle, oversized budget).
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0, 1}, Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 2}, {From: 1, To: 0, Delay: 1, Dist: 1}}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Use: "original", Ops: []BatchOp{
		{Fn: "schedule", Scheduler: "ims", MaxNodes: 4096, Loop: &LoopSpec{Ops: []int{1, 1, 0}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{{Fn: "schedule"}}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", Scheduler: "greedy", Loop: &LoopSpec{Ops: []int{0}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{99}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0}, Edges: []LoopEdge{{From: 0, To: 7, Delay: 1}}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0, 1}, Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 1}, {From: 1, To: 0, Delay: 1}}}},
	}}))
	f.Add(mustJSON(BatchRequest{Machine: "example", Ops: []BatchOp{
		{Fn: "schedule", MaxNodes: 1 << 30, Loop: &LoopSpec{Ops: []int{0}}},
	}}))
	f.Add([]byte(`{"machine":"example","ops":[{"fn":"check","op":0,"cycle":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"machine":"example","ops":"notalist"}`))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run

		code := rec.Code
		if code >= 500 {
			t.Fatalf("5xx (%d) from batch handler on input %q: %s", code, data, rec.Body.Bytes())
		}
		var br BatchRequest
		if json.Unmarshal(data, &br) != nil && code < 400 {
			t.Fatalf("malformed JSON accepted with status %d: %q", code, data)
		}
		if code != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without JSON error body: %q -> %q", code, data, rec.Body.Bytes())
			}
		}
	})
}

// FuzzServeSessionStream throws arbitrary NDJSON bodies at a fresh
// scheduling session's /stream endpoint and pins the streaming
// contract: the handler never panics, the response status is 200 (the
// NDJSON phase) or a 4xx, and every response line is one valid JSON
// value ending in either an {"error":...} line or a {"done":true}
// trailer — a mid-stream failure must never leave a torn, unparsable
// tail on the wire.
func FuzzServeSessionStream(f *testing.F) {
	s := New(Config{})
	if _, err := s.Register("example", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Add([]byte("{\"fn\":\"check\",\"op\":0,\"cycle\":0}\n"))
	f.Add([]byte("{\"fn\":\"assign\",\"op\":0,\"cycle\":0,\"id\":1}\n{\"fn\":\"check\",\"op\":0,\"cycle\":0}\n{\"fn\":\"free\",\"op\":0,\"cycle\":0,\"id\":1}\n"))
	f.Add([]byte("{\"fn\":\"assign_free\",\"op\":0,\"cycle\":2,\"id\":7}\n{\"fn\":\"assign_free\",\"op\":0,\"cycle\":2,\"id\":8}\n"))
	f.Add([]byte("{\"fn\":\"first_free\",\"op\":0,\"lo\":0,\"hi\":12}\n{\"fn\":\"first_free_alt\",\"op\":0,\"lo\":3,\"hi\":9}\n"))
	f.Add([]byte("\n\n{\"fn\":\"check\",\"op\":0,\"cycle\":1}\r\n\n"))
	f.Add([]byte("{\"fn\":\"check\",\"op\":0,\"cycle\":2}")) // final op without trailing newline
	f.Add([]byte("{\"fn\":\"schedule\",\"loop\":{\"ops\":[0,1],\"edges\":[{\"from\":0,\"to\":1,\"delay\":2}]}}\n"))
	f.Add([]byte("{\"fn\":\"schedule\",\"scheduler\":\"ims\",\"loop\":{\"ops\":[1]}}\n{\"fn\":\"schedule\",\"loop\":{\"ops\":[9]}}\n"))
	f.Add([]byte("{\"fn\":\"peek\"}\n"))
	f.Add([]byte("{\"fn\":\"check\",\"op\":9999}\n"))
	f.Add([]byte("{\"fn\":\"check\",\"op\":0,\"cycle\":-5}\n"))
	f.Add([]byte("{\"fn\":\"free\",\"op\":0,\"cycle\":0,\"id\":42}\n"))
	f.Add([]byte("{\"fn\":\"check\",\"op\":0,\"cycle\":"))
	f.Add([]byte("[]\n{}\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, 0x0a})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Rotate the session's representation by input length so the
		// stream contract is fuzzed over the discrete backend and modulo
		// and linear bitvectors too, while corpus replay stays
		// deterministic per input.
		body := `{"machine":"example","representation":"auto"}`
		switch len(data) % 4 {
		case 1:
			body = `{"machine":"example","representation":"discrete"}`
		case 2:
			body = `{"machine":"example","representation":"bitvector","ii":3}`
		case 3:
			body = `{"machine":"example","representation":"bitvector"}`
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
			bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("session create: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var si SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &si); err != nil {
			t.Fatal(err)
		}

		rec = httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+si.SessionID+"/stream", bytes.NewReader(data))
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run
		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) from stream handler on input %q: %s", rec.Code, data, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return // rejected before the NDJSON phase (4xx)
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		for _, line := range lines {
			if len(line) > 0 && !json.Valid(line) {
				t.Fatalf("stream emitted a non-JSON line on input %q: %q", data, line)
			}
		}
		var last struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		tail := lines[len(lines)-1]
		if err := json.Unmarshal(tail, &last); err != nil || (!last.Done && last.Error == "") {
			t.Fatalf("stream ended without error line or done trailer on input %q: %q", data, tail)
		}
	})
}
