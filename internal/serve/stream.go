package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/obs"
	"repro/internal/query"
)

// handleSessionStream is the streaming batch mode of a scheduling
// session: POST /v1/sessions/{id}/stream with an NDJSON body — one
// BatchOp JSON object per line — answered with one NDJSON line per op,
// flushed after every line, so a remote scheduler holds a wire-speed
// conversation with its live module instead of paying a request
// round-trip of framing per batch.
//
// Response framing (Content-Type application/x-ndjson):
//
//   - one result line per op line, byte-identical to the JSON encoding
//     of the equivalent BatchResult: {}, {"ok":true},
//     {"ok":true,"alt_op":2,"cycle":5}, {"evicted":[3]}, ...
//   - on an invalid op: one terminal {"error":"...","index":i} line;
//     ops before i remain applied (the session is stateful).
//   - on clean input EOF: one terminal
//     {"done":true,"ops":N,"counters":{...}} line carrying the
//     session's cumulative work-unit counters.
//
// Blank lines are skipped. The route wrapper admits the stream through
// the gate's reserved stream sub-quota (parallel.Gate AcquireStream), so
// long conversations can never occupy every admission slot, and its
// per-request deadline covers the whole conversation: an op that
// arrives after it is not executed, and a body that stalls past it is
// cut off by the connection's read deadline. Execution is serialized
// per session; ops and results are bounded by Config.MaxStreamOps and
// Config.MaxBodyBytes.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
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

	// HTTP/1.x half-closes the request body once the response starts;
	// a stream reads ops and writes results interleaved, so it needs
	// full-duplex (a no-op where unsupported, e.g. test recorders).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := bufio.NewWriter(w)
	// flushLine pushes one completed response line onto the wire so the
	// client's next decision never waits on server-side buffering.
	flushLine := func() {
		out.Flush()
		rc.Flush()
	}
	// Push the 200 header onto the wire before reading any op: a
	// conversational client is allowed to wait for it before sending.
	flushLine()
	// Once the header is written the status is fixed at 200; protocol
	// errors travel as terminal NDJSON lines instead.
	fail := func(index int, msg string) {
		line, _ := json.Marshal(map[string]any{"error": msg, "index": index})
		out.Write(line)
		out.WriteByte('\n')
		flushLine()
	}

	in := bufio.NewReader(r.Body)
	var (
		op      BatchOp
		res     opResult
		buf     []byte // reused result-line buffer; zero steady-state allocs
		n       int
		errLine error
	)
	for {
		var line []byte
		line, errLine = in.ReadBytes('\n')
		if ctx.Err() != nil || errors.Is(errLine, os.ErrDeadlineExceeded) {
			fail(n, fmt.Sprintf("request deadline exceeded at op %d", n))
			return
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if errLine != nil {
				break // clean EOF (or body error) with no pending op
			}
			continue // blank line between ops
		}
		if n >= s.cfg.MaxStreamOps {
			fail(n, fmt.Sprintf("stream exceeds %d ops", s.cfg.MaxStreamOps))
			return
		}
		op = BatchOp{}
		if err := json.Unmarshal(line, &op); err != nil {
			fail(n, fmt.Sprintf("op %d: invalid JSON: %v", n, err))
			return
		}
		if herr := sess.x.exec(n, &op, &res); herr != nil {
			fail(n, herr.msg)
			return
		}
		buf = res.appendJSON(buf[:0])
		buf = append(buf, '\n')
		out.Write(buf)
		flushLine()
		n++
		if errLine != nil {
			break // the final op arrived without a trailing newline
		}
	}
	if errLine != nil && errLine != io.EOF {
		// Body read error (cap exceeded, client gone): report and stop.
		fail(n, fmt.Sprintf("stream read: %v", errLine))
		return
	}
	sess.ops.Add(int64(n))
	obs.Add("serve.stream.ops", int64(n))
	sess.touch(s.now())
	trailer, _ := json.Marshal(streamTrailer{Done: true, Ops: n, Backend: sess.x.backend, Counters: *sess.x.mod.Counters()})
	out.Write(trailer)
	out.WriteByte('\n')
	flushLine()
}

// streamTrailer is the terminal line of a successful stream: the op
// count answered on this request, the concrete backend serving the
// session's module, and the session's cumulative counters.
type streamTrailer struct {
	Done     bool           `json:"done"`
	Ops      int            `json:"ops"`
	Backend  string         `json:"backend"`
	Counters query.Counters `json:"counters"`
}
