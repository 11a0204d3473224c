package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mdl"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/responses.golden from the current server")

// goldenStep is one request of the TestServeResponsesGolden script.
type goldenStep struct {
	method, path string
	body         any // nil, a raw string, or a value marshalled as JSON
}

// TestServeResponsesGolden drives a fixed request script through the
// handler and compares every response's status, content type and body
// bytes with testdata/responses.golden. The script covers reduce (cold
// and as a cache hit); batches on every representation, linear and
// modulo, with range queries, assign_free evictions and both schedule
// engines; a session's create, ops, info, list, stream and delete; and
// one each of 400, 404, 409, 410, 413 and a 429 from a full gate. The
// session clock is fixed, so idle times are stable. Rewrite the golden
// file with `go test ./internal/serve -run TestServeResponsesGolden
// -update-golden` only when a wire change is intended.
func TestServeResponsesGolden(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1 << 16, SessionTTL: time.Minute})
	clock := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return clock }
	h := s.Handler()

	exMDL := mdl.Print(machines.Example())
	c5MDL := mdl.Print(machines.Cydra5Subset())
	loop := &LoopSpec{Ops: []int{0, 1, 0}, Edges: []LoopEdge{
		{From: 0, To: 1, Delay: 2},
		{From: 1, To: 2, Delay: 1},
		{From: 2, To: 0, Delay: 1, Dist: 1},
	}}
	rangeOps := []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "check_with_alt", Op: 0, Cycle: 0},
		{Fn: "first_free", Op: 0, Lo: 0, Hi: 7},
		{Fn: "first_free_alt", Op: 1, Lo: 0, Hi: 7},
		{Fn: "free", Op: 0, Cycle: 0, ID: 1},
		{Fn: "assign_free", Op: 0, Cycle: 2, ID: 2},
		{Fn: "assign_free", Op: 1, Cycle: 2, ID: 3},
		{Fn: "assign_free", Op: 0, Cycle: 2, ID: 4},
		{Fn: "assign_free", Op: 1, Cycle: 3, ID: 5},
		{Fn: "first_free", Op: 0, Lo: 2, Hi: 2},
	}
	steps := []goldenStep{
		{"POST", "/v1/reduce", ReduceRequest{Name: "ex", MDL: exMDL}},
		{"POST", "/v1/reduce", ReduceRequest{Name: "ex-again", MDL: exMDL}},
		{"POST", "/v1/reduce", ReduceRequest{Name: "c5", MDL: c5MDL, Objective: "2-cycle-word"}},
		{"GET", "/v1/machines", nil},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Ops: rangeOps}},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Use: "original", Representation: "bitvector", Ops: rangeOps}},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Representation: "bitvector", II: 4, K: 1, WordBits: 32, Ops: rangeOps}},
		{"POST", "/v1/batch", BatchRequest{Machine: "c5", Representation: "auto", II: 5, Ops: append(append([]BatchOp{}, rangeOps...),
			BatchOp{Fn: "schedule", Loop: loop},
			BatchOp{Fn: "schedule", Scheduler: "ims", Loop: loop})}},
		{"POST", "/v1/batch", BatchRequest{Machine: "c5", Use: "original", Representation: "auto", Ops: []BatchOp{
			{Fn: "schedule", Loop: loop, MaxNodes: 64},
			{Fn: "schedule", Scheduler: "ims", Loop: loop},
			{Fn: "first_free_alt", Op: 2, Lo: 0, Hi: 40},
		}}},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{}}},
		{"POST", "/v1/sessions", SessionRequest{Machine: "ex", Representation: "auto", II: 4}},
		{"POST", "/v1/sessions/s-000001/ops", SessionOpsRequest{Ops: rangeOps}},
		{"POST", "/v1/sessions/s-000001/ops", SessionOpsRequest{Ops: []BatchOp{
			{Fn: "check", Op: 0, Cycle: 6},
			{Fn: "schedule", Scheduler: "ims", Loop: loop},
		}}},
		{"GET", "/v1/sessions/s-000001", nil},
		{"POST", "/v1/sessions/s-000001/stream", "{\"fn\":\"check\",\"op\":0,\"cycle\":1}\n\n" +
			"{\"fn\":\"assign_free\",\"op\":0,\"cycle\":1,\"id\":9}\n" +
			"{\"fn\":\"first_free_alt\",\"op\":0,\"lo\":0,\"hi\":9}\n" +
			"{\"fn\":\"free\",\"op\":0,\"cycle\":1,\"id\":9}"},
		{"POST", "/v1/sessions/s-000001/stream", "{\"fn\":\"check\",\"op\":0,\"cycle\":1}\n{\"fn\":\"free\",\"op\":0,\"cycle\":1,\"id\":77}\n"},
		{"POST", "/v1/sessions", SessionRequest{Machine: "c5", Use: "original"}},
		{"GET", "/v1/sessions", nil},
		{"DELETE", "/v1/sessions/s-000002", nil},
		{"GET", "/healthz", nil},
		// Client errors.
		{"POST", "/v1/batch", `{"machine":"ex","ops":[`},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Representation: "fsa"}},
		{"POST", "/v1/batch", BatchRequest{Machine: "nope"}},
		{"POST", "/v1/sessions/s-000002/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}}},
		{"POST", "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "assign", Op: 0, Cycle: 0, ID: 2},
		}}},
		{"POST", "/v1/reduce", ReduceRequest{MDL: strings.Repeat("x", 1<<16)}},
		{"POST", "/v1/sessions/s-000001/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "peek"}}}},
		{"POST", "/v1/sessions/s-000001/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: -1}}}},
	}

	var got bytes.Buffer
	for _, st := range steps {
		recordStep(t, &got, h, st)
	}

	// 410: the session idles past the TTL on the injected clock.
	clock = clock.Add(2 * time.Minute)
	recordStep(t, &got, h, goldenStep{"GET", "/v1/sessions/s-000001", nil})

	// 429: a full gate turns the request away at its deadline.
	full := New(Config{MaxInFlight: 1, RequestTimeout: 20 * time.Millisecond})
	if _, err := full.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	if err := full.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	fh := full.Handler()
	recordStep(t, &got, fh, goldenStep{"POST", "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check"}}}})
	full.gate.Release()

	path := filepath.Join("testdata", "responses.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("responses differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// recordStep sends one request through h and appends its method, path,
// status, content type and exact body bytes to out.
func recordStep(t *testing.T, out *bytes.Buffer, h http.Handler, st goldenStep) {
	t.Helper()
	var body []byte
	switch b := st.body.(type) {
	case nil:
	case string:
		body = []byte(b)
	default:
		var err error
		if body, err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(st.method, st.path, bytes.NewReader(body)))
	fmt.Fprintf(out, "=== %s %s\n%d %s\n", st.method, st.path, rec.Code, rec.Header().Get("Content-Type"))
	out.Write(rec.Body.Bytes())
}
