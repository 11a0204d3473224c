package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/resmodel"
)

// postStream sends ops as one NDJSON request body to a session's stream
// endpoint over real TCP and returns the raw response lines.
func postStream(t *testing.T, url, id string, ops []BatchOp) [][]byte {
	t.Helper()
	var body bytes.Buffer
	for _, op := range ops {
		line, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(url+"/v1/sessions/"+id+"/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestStreamBasicAndTrailer(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	si := createSession(t, s.Handler(), SessionRequest{Machine: "ex"})

	lines := postStream(t, ts.URL, si.SessionID, []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "check", Op: 0, Cycle: 0},
	})
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 results + trailer:\n%s", len(lines), bytes.Join(lines, []byte("\n")))
	}
	if string(lines[0]) != `{"ok":true}` || string(lines[1]) != `{}` || string(lines[2]) != `{"ok":false}` {
		t.Errorf("result lines: %s | %s | %s", lines[0], lines[1], lines[2])
	}
	var tr streamTrailer
	if err := json.Unmarshal(lines[3], &tr); err != nil || !tr.Done || tr.Ops != 3 {
		t.Fatalf("trailer %s (err %v)", lines[3], err)
	}
	if tr.Counters.CheckCalls < 2 || tr.Counters.AssignCalls != 1 {
		t.Errorf("trailer counters: %+v", tr.Counters)
	}

	// An empty body is a legal conversation of zero ops.
	lines = postStream(t, ts.URL, si.SessionID, nil)
	if len(lines) != 1 {
		t.Fatalf("empty stream: %d lines, want trailer only", len(lines))
	}
	if err := json.Unmarshal(lines[0], &tr); err != nil || !tr.Done || tr.Ops != 0 {
		t.Fatalf("empty-stream trailer: %s", lines[0])
	}

	// Streams against unknown sessions fail before the NDJSON phase.
	resp, err := http.Post(ts.URL+"/v1/sessions/s-999999/stream", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stream on unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamErrorLineKeepsAppliedOps pins the mid-stream failure
// contract: a bad op (or bad JSON) yields one terminal error line with
// the op index, the stream ends, and ops before the failure stay
// applied to the session.
func TestStreamErrorLineKeepsAppliedOps(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := s.Handler()

	for name, body := range map[string]string{
		"bad fn":   "{\"fn\":\"assign\",\"op\":0,\"cycle\":0,\"id\":1}\n{\"fn\":\"peek\"}\n{\"fn\":\"check\"}\n",
		"bad json": "{\"fn\":\"assign\",\"op\":0,\"cycle\":0,\"id\":1}\n{\"fn\":\n",
	} {
		si := createSession(t, h, SessionRequest{Machine: "ex"})
		resp, err := http.Post(ts.URL+"/v1/sessions/"+si.SessionID+"/stream", "application/x-ndjson", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("%s: %d lines, want result + error line:\n%s", name, len(lines), out)
		}
		var e struct {
			Error string `json:"error"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(lines[1], &e); err != nil || e.Error == "" || e.Index != 1 {
			t.Fatalf("%s: error line %s (err %v)", name, lines[1], err)
		}
		// The assign that preceded the failure is applied.
		resp2 := decodeBody[SessionOpsResponse](t, post(t, h, "/v1/sessions/"+si.SessionID+"/ops",
			SessionOpsRequest{Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: 0}}}))
		if resp2.Results[0].OK == nil || *resp2.Results[0].OK {
			t.Errorf("%s: op before stream failure was not applied", name)
		}
	}
}

// TestStreamInstanceIDRange pins the instance-id range on the wire: the
// largest 32-bit id schedules and evicts normally in a batch, and a
// wider id on assign, assign_free or free is a terminal error line in a
// session stream, with the ops before it applied. On assign and
// assign_free the error names the range; on free the id was never
// scheduled, and the error says so.
func TestStreamInstanceIDRange(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := s.Handler()

	rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 0, ID: math.MaxInt32},
		{Fn: "assign_free", Op: 0, Cycle: 0, ID: 5},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch at id %d: status %d: %s", math.MaxInt32, rec.Code, rec.Body.String())
	}
	br := decodeBody[BatchResponse](t, rec)
	if ev := br.Results[1].Evicted; len(ev) != 1 || ev[0] != math.MaxInt32 {
		t.Fatalf("assign_free evicted %v, want [%d]", ev, math.MaxInt32)
	}

	for fn, want := range map[string]string{"assign": "exceeds", "assign_free": "exceeds", "free": "unscheduled"} {
		si := createSession(t, h, SessionRequest{Machine: "ex"})
		lines := postStream(t, ts.URL, si.SessionID, []BatchOp{
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: fn, Op: 0, Cycle: 0, ID: 1<<32 + 1},
		})
		var e struct {
			Error string `json:"error"`
			Index int    `json:"index"`
		}
		if len(lines) != 2 || json.Unmarshal(lines[1], &e) != nil || e.Index != 1 ||
			!strings.Contains(e.Error, want) {
			t.Fatalf("%s with id 2^32+1: want one result and an error line at index 1, got:\n%s", fn, bytes.Join(lines, []byte("\n")))
		}
		// The session still holds instance 1, and only it.
		r := decodeBody[SessionOpsResponse](t, post(t, h, "/v1/sessions/"+si.SessionID+"/ops",
			SessionOpsRequest{Ops: []BatchOp{{Fn: "assign_free", Op: 0, Cycle: 0, ID: 2}}}))
		if ev := r.Results[0].Evicted; len(ev) != 1 || ev[0] != 1 {
			t.Fatalf("%s: after the rejected op, assign_free evicted %v, want [1]", fn, ev)
		}
	}
}

// TestStreamConversation proves results are flushed per line: the
// client sends each op only after reading the previous op's result off
// the wire. Server-side buffering of even one line would deadlock this
// loop (bounded by the watchdog timeout).
func TestStreamConversation(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	si := createSession(t, s.Handler(), SessionRequest{Machine: "ex"})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+si.SessionID+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	type respErr struct {
		resp *http.Response
		err  error
	}
	respc := make(chan respErr, 1)
	go func() {
		resp, err := http.DefaultTransport.RoundTrip(req)
		respc <- respErr{resp, err}
	}()

	done := make(chan struct{})
	defer close(done)
	go func() { // watchdog: a buffering server stalls the loop below
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			pw.CloseWithError(fmt.Errorf("conversation stalled"))
		}
	}()

	var re respErr
	select {
	case re = <-respc:
	case <-time.After(30 * time.Second):
		t.Fatal("no response header within 30s")
	}
	if re.err != nil {
		t.Fatal(re.err)
	}
	defer re.resp.Body.Close()
	if re.resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", re.resp.StatusCode)
	}
	rd := bufio.NewReader(re.resp.Body)
	for i := 0; i < 20; i++ {
		op, _ := json.Marshal(BatchOp{Fn: "check", Op: 0, Cycle: i})
		if _, err := pw.Write(append(op, '\n')); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("op %d: reading result: %v", i, err)
		}
		var res BatchResult
		if err := json.Unmarshal(line, &res); err != nil || res.OK == nil {
			t.Fatalf("op %d: result line %s (err %v)", i, line, err)
		}
	}
	pw.Close()
	var tr streamTrailer
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &tr); err != nil || !tr.Done || tr.Ops != 20 {
		t.Fatalf("trailer %s (err %v)", line, err)
	}
}

// TestDifferentialStreamedSessionVsInProcess extends the differential
// suite to the tentpole's conformance claim: a stateful session driven
// through interleaved /ops and /stream requests answers byte-identically
// to one in-process module executing the same sequence — every NDJSON
// line equals json.Marshal of the in-process BatchResult, every /ops
// results array equals its marshalled chunk, and the cumulative counters
// (stream trailer and session info) equal the in-process module's.
func TestDifferentialStreamedSessionVsInProcess(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := s.Handler()

	rng := rand.New(rand.NewSource(7))
	const numMachines = 6
	for i := 0; i < numMachines; i++ {
		m := resmodel.Random(rng, resmodel.DefaultRandomConfig())
		m.Name = fmt.Sprintf("sm%d", i)
		if _, err := s.Register(m.Name, mustParse(t, mdl.Print(m)), core.Objective{Kind: core.ResUses}); err != nil {
			t.Fatal(err)
		}
		me := s.lookup(m.Name)

		ii := 0
		if i%2 == 1 {
			ii = 1 + rng.Intn(m.MaxSpan()+2)
		}
		for _, c := range []batchCase{
			{"reduced", "discrete", ii},
			{"original", "bitvector", ii},
		} {
			for _, assignFree := range []bool{false, true} {
				e := me.expandedFor(c.use)
				seqSeed := rng.Int63()
				ops := genSequence(rand.New(rand.NewSource(seqSeed)), e, localModule(t, e, c), c.ii, assignFree, 120)
				ref := localModule(t, e, c)
				want := replayOps(ref, ops)

				si := createSession(t, h, SessionRequest{
					Machine:        m.Name,
					Use:            c.use,
					Representation: c.representation,
					II:             c.ii,
				})

				// Drive the same sequence through alternating transport
				// chunks: NDJSON stream, then JSON ops, repeat.
				for lo := 0; lo < len(ops) || lo == 0; {
					hi := lo + 1 + rng.Intn(30)
					if hi > len(ops) {
						hi = len(ops)
					}
					chunk, wantChunk := ops[lo:hi], want[lo:hi]
					if (lo/7)%2 == 0 {
						lines := postStream(t, ts.URL, si.SessionID, chunk)
						if len(lines) != len(chunk)+1 {
							t.Fatalf("machine %d %+v: stream returned %d lines for %d ops", i, c, len(lines), len(chunk))
						}
						for j, wr := range wantChunk {
							wantLine, err := json.Marshal(wr)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(lines[j], wantLine) {
								t.Fatalf("machine %d %+v op %d: streamed line %s != in-process %s",
									i, c, lo+j, lines[j], wantLine)
							}
						}
					} else {
						rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: chunk})
						if rec.Code != http.StatusOK {
							t.Fatalf("machine %d %+v: ops status %d: %s", i, c, rec.Code, rec.Body.String())
						}
						var raw struct {
							Results json.RawMessage `json:"results"`
						}
						if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
							t.Fatal(err)
						}
						wantRaw, err := json.Marshal(wantChunk)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(raw.Results, wantRaw) {
							t.Fatalf("machine %d %+v ops [%d,%d): served results differ\nserved: %s\nlocal:  %s",
								i, c, lo, hi, raw.Results, wantRaw)
						}
					}
					if hi == lo { // zero-length tail: still exercised once
						break
					}
					lo = hi
				}

				// Cumulative counters: session info vs the in-process module.
				info := decodeBody[SessionInfo](t, doReq(t, h, http.MethodGet, "/v1/sessions/"+si.SessionID))
				if info.Counters == nil || *info.Counters != *ref.Counters() {
					t.Fatalf("machine %d %+v: session counters %+v differ from in-process %+v",
						i, c, info.Counters, *ref.Counters())
				}
				if rec := doReq(t, h, http.MethodDelete, "/v1/sessions/"+si.SessionID); rec.Code != http.StatusOK {
					t.Fatalf("delete: status %d", rec.Code)
				}
			}
		}
	}
}

func mustParse(t *testing.T, src string) *resmodel.Machine {
	t.Helper()
	m, err := mdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
