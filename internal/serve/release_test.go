package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
)

// TestStreamAdmissionReleasesOnFailure opens a stream over real TCP and
// ends it badly: a trickled body whose next op arrives after the
// request deadline, a body that stalls past the deadline with the
// connection still open, and a client that disconnects mid-stream.
// After each, the gate holds no slot and no stream, the session's lock
// is free (a follow-up /ops answers 200 well inside the deadline it
// would otherwise wait out) and the goroutine count settles back to
// where it was before the stream.
func TestStreamAdmissionReleasesOnFailure(t *testing.T) {
	const deadline = 300 * time.Millisecond
	s := New(Config{RequestTimeout: deadline})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	op := `{"fn":"check","op":0,"cycle":0}` + "\n"

	for _, tc := range []struct {
		name string
		// end finishes the stream after its first op was answered;
		// pw is the request body, rd the response lines.
		end func(t *testing.T, pw *io.PipeWriter, rd *bufio.Reader, cancel context.CancelFunc)
	}{
		{"trickle past deadline", func(t *testing.T, pw *io.PipeWriter, rd *bufio.Reader, _ context.CancelFunc) {
			time.Sleep(deadline + 100*time.Millisecond)
			if _, err := io.WriteString(pw, op); err != nil {
				t.Fatal(err)
			}
			wantErrorLine(t, rd, "deadline")
			pw.Close()
		}},
		{"stall past deadline", func(t *testing.T, pw *io.PipeWriter, rd *bufio.Reader, _ context.CancelFunc) {
			// The body stays open and silent; the server must give up
			// at its deadline on its own.
			wantErrorLine(t, rd, "deadline")
			pw.Close()
		}},
		{"client disconnect", func(t *testing.T, pw *io.PipeWriter, _ *bufio.Reader, cancel context.CancelFunc) {
			cancel()
			pw.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			si := createSession(t, h, SessionRequest{Machine: "ex"})
			tr := &http.Transport{}
			base := settledGoroutines(-1)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pr, pw := io.Pipe()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sessions/"+si.SessionID+"/stream", pr)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stream: status %d", resp.StatusCode)
			}
			rd := bufio.NewReader(resp.Body)
			if _, err := io.WriteString(pw, op); err != nil {
				t.Fatal(err)
			}
			if line, err := rd.ReadString('\n'); err != nil || line != "{\"ok\":true}\n" {
				t.Fatalf("first result %q (err %v)", line, err)
			}
			tc.end(t, pw, rd, cancel)
			resp.Body.Close()
			tr.CloseIdleConnections()

			for stop := time.Now().Add(5 * time.Second); s.gate.InFlight() != 0 || s.gate.Streams() != 0; {
				if time.Now().After(stop) {
					t.Fatalf("gate not released: InFlight()=%d Streams()=%d", s.gate.InFlight(), s.gate.Streams())
				}
				time.Sleep(5 * time.Millisecond)
			}
			start := time.Now()
			rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check"}}})
			if rec.Code != http.StatusOK || time.Since(start) >= deadline {
				t.Fatalf("follow-up /ops: status %d after %v: %s", rec.Code, time.Since(start), rec.Body.String())
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after the stream, %d before", n, base)
			}
		})
	}
}

// wantErrorLine reads the stream's next line and requires it to be the
// terminal error line mentioning substr.
func wantErrorLine(t *testing.T, rd *bufio.Reader, substr string) {
	t.Helper()
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading the terminal line: %v", err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &e); err != nil || !strings.Contains(e.Error, substr) {
		t.Fatalf("terminal line %s, want an error mentioning %q", line, substr)
	}
}

// settledGoroutines waits up to five seconds for the goroutine count to
// drop to at most target (any count when target < 0, after a short
// settling pause) and returns the last count seen.
func settledGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for stop := time.Now().Add(5 * time.Second); time.Now().Before(stop); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if target >= 0 && m <= target || target < 0 && m == n {
			return m
		}
		n = m
	}
	return n
}
