package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/obs"
)

// post sends a JSON body through the handler and returns the recorder.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.([]byte); ok {
		buf.Write(raw)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("response %d not valid JSON: %v\n%s", rec.Code, err, rec.Body.String())
	}
	return v
}

func TestReduceEndpointAndCacheHit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	src := mdl.Print(machines.Example())

	rec := post(t, h, "/v1/reduce", ReduceRequest{Name: "ex", MDL: src})
	if rec.Code != http.StatusOK {
		t.Fatalf("reduce: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ReduceResponse](t, rec)
	if resp.Name != "ex" || resp.CacheHit {
		t.Errorf("first reduce: name=%q hit=%v, want ex/false", resp.Name, resp.CacheHit)
	}
	if resp.ReducedResources > resp.Resources || resp.ReducedResources < 1 {
		t.Errorf("implausible reduction: %d -> %d resources", resp.Resources, resp.ReducedResources)
	}
	if _, err := mdl.Parse(resp.ReducedMDL); err != nil {
		t.Errorf("reduced MDL does not parse: %v", err)
	}

	// Same content under a different name: a cache hit, two sessions.
	resp2 := decodeBody[ReduceResponse](t, post(t, h, "/v1/reduce", ReduceRequest{Name: "ex2", MDL: src}))
	if !resp2.CacheHit {
		t.Error("second reduce of identical content missed the cache")
	}

	var ms struct{ Machines []MachineInfo }
	if rec := get(t, h, "/v1/machines"); rec.Code != http.StatusOK {
		t.Fatalf("machines: status %d", rec.Code)
	} else if got := decodeBody[struct{ Machines []MachineInfo }](t, rec); len(got.Machines) != 2 {
		t.Errorf("machines lists %d entries, want 2", len(got.Machines))
	} else {
		ms = *got
	}
	if ms.Machines[0].Name != "ex" || ms.Machines[1].Name != "ex2" {
		t.Errorf("machines not sorted by name: %+v", ms.Machines)
	}
}

func TestReduceRejectsBadInput(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for name, tc := range map[string]struct {
		body any
		want int
	}{
		"malformed json": {[]byte("{"), http.StatusBadRequest},
		"empty mdl":      {ReduceRequest{MDL: "  "}, http.StatusBadRequest},
		"bad mdl":        {ReduceRequest{MDL: "machine m\nop x {"}, http.StatusBadRequest},
		"bad objective":  {ReduceRequest{MDL: mdl.Print(machines.Example()), Objective: "zero-cycle"}, http.StatusBadRequest},
	} {
		if rec := post(t, h, "/v1/reduce", tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestBatchEndpointBasic(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := post(t, h, "/v1/batch", BatchRequest{
		Machine: "ex",
		Use:     "original",
		Ops: []BatchOp{
			{Fn: "check", Op: 0, Cycle: 0},
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "check", Op: 0, Cycle: 0}, // now occupied
			{Fn: "check_with_alt", Op: 0, Cycle: 0},
			{Fn: "free", Op: 0, Cycle: 0, ID: 1},
			{Fn: "check", Op: 0, Cycle: 0},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[BatchResponse](t, rec)
	if len(resp.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(resp.Results))
	}
	if resp.Results[0].OK == nil || !*resp.Results[0].OK {
		t.Error("check on empty table not ok")
	}
	if resp.Results[2].OK == nil || *resp.Results[2].OK {
		t.Error("check after assign reported free")
	}
	if resp.Results[5].OK == nil || !*resp.Results[5].OK {
		t.Error("check after free not ok")
	}
	if resp.Counters.CheckCalls == 0 || resp.Counters.AssignCalls != 1 || resp.Counters.FreeCalls != 1 {
		t.Errorf("counters not threaded through: %+v", resp.Counters)
	}
	if resp.Use != "original" || resp.Representation != "discrete" {
		t.Errorf("echo fields: use=%q rep=%q", resp.Use, resp.Representation)
	}
}

func TestBatchAssignFreeEvictions(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := post(t, h, "/v1/batch", BatchRequest{
		Machine: "ex",
		Ops: []BatchOp{
			{Fn: "assign_free", Op: 0, Cycle: 0, ID: 1},
			{Fn: "assign_free", Op: 0, Cycle: 0, ID: 2}, // same slot: evicts 1
			{Fn: "free", Op: 0, Cycle: 0, ID: 2},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[BatchResponse](t, rec)
	if len(resp.Results[0].Evicted) != 0 {
		t.Errorf("first assign_free evicted %v, want none", resp.Results[0].Evicted)
	}
	if len(resp.Results[1].Evicted) != 1 || resp.Results[1].Evicted[0] != 1 {
		t.Errorf("second assign_free evicted %v, want [1]", resp.Results[1].Evicted)
	}
}

func TestBatchValidation(t *testing.T) {
	s := New(Config{MaxBatchOps: 4, MaxCycle: 100})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	many := make([]BatchOp, 5)
	for i := range many {
		many[i] = BatchOp{Fn: "check"}
	}
	for name, tc := range map[string]struct {
		req  BatchRequest
		want int
	}{
		"unknown machine": {BatchRequest{Machine: "nope"}, http.StatusNotFound},
		"bad use":         {BatchRequest{Machine: "ex", Use: "both"}, http.StatusBadRequest},
		"bad rep":         {BatchRequest{Machine: "ex", Representation: "automaton"}, http.StatusBadRequest},
		"negative ii":     {BatchRequest{Machine: "ex", II: -1}, http.StatusBadRequest},
		"too many ops":    {BatchRequest{Machine: "ex", Ops: many}, http.StatusBadRequest},
		"bad fn":          {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "peek"}}}, http.StatusBadRequest},
		"op out of range": {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check", Op: 99}}}, http.StatusBadRequest},
		"negative op":     {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check", Op: -1}}}, http.StatusBadRequest},
		"negative cycle":  {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check", Cycle: -1}}}, http.StatusBadRequest},
		"huge cycle":      {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check", Cycle: 101}}}, http.StatusBadRequest},
		"free unknown id": {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "free", ID: 5}}}, http.StatusBadRequest},
		"wide assign id":  {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "assign", ID: 1 << 31}}}, http.StatusBadRequest},
		"wide assign_free id": {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "assign_free", ID: 1<<32 + 5}}},
			http.StatusBadRequest},
		"wide free id":    {BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "free", ID: 1 << 31}}}, http.StatusBadRequest},
		"bad bitvector k": {BatchRequest{Machine: "ex", Representation: "bitvector", K: 500}, http.StatusBadRequest},
		"bad word bits":   {BatchRequest{Machine: "ex", Representation: "bitvector", WordBits: 48}, http.StatusBadRequest},
		"assign conflict": {BatchRequest{Machine: "ex", Ops: []BatchOp{
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "assign", Op: 0, Cycle: 0, ID: 2},
		}}, http.StatusConflict},
		"id reuse": {BatchRequest{Machine: "ex", Ops: []BatchOp{
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "assign", Op: 0, Cycle: 50, ID: 1},
		}}, http.StatusBadRequest},
		"free mismatched cycle": {BatchRequest{Machine: "ex", Ops: []BatchOp{
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "free", Op: 0, Cycle: 3, ID: 1},
		}}, http.StatusBadRequest},
	} {
		rec := post(t, h, "/v1/batch", tc.req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not {\"error\": ...}: %s", name, rec.Body.String())
		}
	}
}

func TestAdmissionGateRejectsWhenFull(t *testing.T) {
	s := New(Config{MaxInFlight: 1, RequestTimeout: 30 * time.Millisecond})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	// Hold the only slot so the request cannot be admitted.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Release()
	rec := post(t, s.Handler(), "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check"}}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	// Cheap endpoints stay available during overload.
	if rec := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz during overload: status %d", rec.Code)
	}
}

func TestBatchStopsAtDeadline(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, herr := s.buildModule(s.lookup("ex"), "", "", 0, 0, 0)
	if herr != nil {
		t.Fatal(herr.msg)
	}
	_, herr = runOps(ctx, x, []BatchOp{{Fn: "check"}})
	if herr == nil || herr.status != http.StatusServiceUnavailable {
		t.Fatalf("expired-context batch: %+v, want 503", herr)
	}
}

func TestBodySizeCap(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	big := []byte(fmt.Sprintf(`{"mdl": %q}`, strings.Repeat("x", 200)))
	rec := post(t, s.Handler(), "/v1/reduce", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)

	s := New(Config{CacheCapacity: 2})
	h := s.Handler()
	if rec := post(t, h, "/v1/reduce", ReduceRequest{Name: "ex", MDL: mdl.Print(machines.Example())}); rec.Code != http.StatusOK {
		t.Fatalf("reduce: %d", rec.Code)
	}
	if rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{{Fn: "check"}}}); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d", rec.Code)
	}

	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var hz struct {
		OK    bool `json:"ok"`
		Cache struct {
			Resident, Capacity int
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || !hz.OK {
		t.Fatalf("healthz body: %s (%v)", rec.Body.String(), err)
	}
	if hz.Cache.Capacity != 2 || hz.Cache.Resident > 2 {
		t.Errorf("healthz cache shape: %+v", hz.Cache)
	}

	rec = get(t, h, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	data, _ := io.ReadAll(rec.Body)
	if err := obs.ValidateSnapshotJSON(data, "serve", "core"); err != nil {
		t.Fatalf("metrics snapshot invalid: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("serve.reduce.requests") < 1 || snap.Counter("serve.batch.requests") < 1 {
		t.Error("serve request counters missing from snapshot")
	}
}
