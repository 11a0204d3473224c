//go:build smoke

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeSmoke is the end-to-end smoke run behind `make serve-smoke`:
// build the real mdserve binary, start it on an ephemeral port, drive
// one reduce, one batch, a full scheduling-session conversation
// (create, 100 streamed NDJSON ops, one /ops request, idle expiry) and
// one metrics scrape that must show every wrapped route's request
// counter and latency histogram over real TCP, then SIGTERM it and require a clean drain
// (exit code 0). Build-tagged so `go test ./...` stays fast.
func TestServeSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mdserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/mdserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/mdserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-preload", "example,cydra5-subset", "-cache", "8", "-session-ttl", "1s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its resolved address once the listener is up.
	lines := bufio.NewScanner(stdout)
	var base string
	for lines.Scan() {
		if _, addr, ok := strings.Cut(lines.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatalf("mdserve never announced its address: %v", lines.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path string, body any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, out)
		}
		return out
	}

	// One reduce: the Figure 1 example in MDL source form.
	const exampleMDL = `machine smoke
resources bus0 bus1 alu0 alu1 wb

op add latency 2 {
  alu0: 0
  bus0: 0
  wb: 2
  alt {
    alu1: 0
    bus1: 0
    wb: 2
  }
}
op store latency 1 {
  bus0: 0
  bus1: 1
}
`
	var red ReduceResponse
	if err := json.Unmarshal(post("/v1/reduce", ReduceRequest{MDL: exampleMDL}), &red); err != nil {
		t.Fatalf("reduce response: %v", err)
	}
	if red.Name != "smoke" || red.ReducedUsages > red.Usages {
		t.Fatalf("implausible reduce response: %+v", red)
	}

	// One batch against it.
	var batch BatchResponse
	if err := json.Unmarshal(post("/v1/batch", BatchRequest{
		Machine: "smoke",
		Ops: []BatchOp{
			{Fn: "check", Op: 0, Cycle: 0},
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "check_with_alt", Op: 0, Cycle: 0},
			{Fn: "free", Op: 0, Cycle: 0, ID: 1},
		},
	}), &batch); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if len(batch.Results) != 4 || batch.Results[0].OK == nil || !*batch.Results[0].OK {
		t.Fatalf("implausible batch response: %+v", batch)
	}

	// A stateful scheduling session: create it, stream 100 ops through
	// the NDJSON conversation mode, and check every line came back plus
	// the done trailer with the right op count.
	var si SessionInfo
	if err := json.Unmarshal(post("/v1/sessions", SessionRequest{Machine: "smoke"}), &si); err != nil {
		t.Fatalf("session create response: %v", err)
	}
	var ndjson bytes.Buffer
	const streamOps = 100
	for i := 0; i < streamOps; i++ {
		op, err := json.Marshal(BatchOp{Fn: "check", Op: 0, Cycle: i % 16})
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(op)
		ndjson.WriteByte('\n')
	}
	sresp, err := client.Post(base+"/v1/sessions/"+si.SessionID+"/stream", "application/x-ndjson", &ndjson)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var streamLines [][]byte
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		streamLines = append(streamLines, append([]byte(nil), sc.Bytes()...))
	}
	sresp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || len(streamLines) != streamOps+1 {
		t.Fatalf("stream: status %d, %d lines (want %d results + trailer)", sresp.StatusCode, len(streamLines), streamOps)
	}
	var trailer struct {
		Done bool `json:"done"`
		Ops  int  `json:"ops"`
	}
	if err := json.Unmarshal(streamLines[streamOps], &trailer); err != nil || !trailer.Done || trailer.Ops != streamOps {
		t.Fatalf("stream trailer: %s (err %v)", streamLines[streamOps], err)
	}

	// One /ops request on the same session over TCP.
	var ops SessionOpsResponse
	if err := json.Unmarshal(post("/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{{Fn: "check", Op: 0, Cycle: 0}}}), &ops); err != nil {
		t.Fatalf("session ops response: %v", err)
	}
	if ops.SessionID != si.SessionID || len(ops.Results) != 1 || ops.Results[0].OK == nil {
		t.Fatalf("implausible session ops response: %+v", ops)
	}

	// Idle past the 1s TTL the session expires: first probe sees
	// 410 Gone (lazy expiry), after which the id is unknown.
	time.Sleep(1200 * time.Millisecond)
	gresp, err := client.Get(base + "/v1/sessions/" + si.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusGone {
		t.Fatalf("expired session probe: status %d, want 410", gresp.StatusCode)
	}

	// Metrics scrape: -preload and the requests above must have left
	// serve-scope counters behind.
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", resp.StatusCode, snap)
	}
	var metrics obs.Snapshot
	if err := json.Unmarshal(snap, &metrics); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	// Every route through the request wrapper counts and times itself.
	for _, route := range []string{"reduce", "batch", "session.ops", "stream"} {
		if metrics.Counter("serve."+route+".requests") < 1 {
			t.Errorf("metrics snapshot missing serve.%s.requests", route)
		}
		if h := metrics.Histogram("serve." + route + ".latency"); h == nil || h.Count < 1 {
			t.Errorf("metrics snapshot missing serve.%s.latency", route)
		}
	}

	// Clean shutdown: SIGTERM, drain, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("mdserve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("mdserve did not drain within 15s of SIGTERM")
	}
}
