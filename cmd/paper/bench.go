package main

import "time"

// benchEntry is one serial-vs-parallel wall-time comparison; every
// bench report uses the schema, and benchgate ignores fields it does
// not know.
type benchEntry struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	SerialNS   int64   `json:"serial_ns"`
	ParallelNS int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// GoMaxProcs/NumCPU record the host shape this entry was measured
	// under; 0 (older reports) means "use the report-level values".
	// benchgate skips entries whose host shape differs from the baseline
	// instead of failing them — throughput across different core counts
	// is not comparable.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// LoopsPerSec is the streamed-scheduling throughput (loops scheduled
	// per second of wall time, generation included) of the throughput
	// benchmark's entries.
	LoopsPerSec float64 `json:"loops_per_sec,omitempty"`
	// Failed counts corpus loops the scheduler gave up on (throughput
	// entries; the count is deterministic per corpus).
	Failed int `json:"failed,omitempty"`
	// ReqPerSec, P50US and P99US describe the serve load test's entries:
	// HTTP requests completed per second of wall time and the request
	// latency quantiles in microseconds.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	P50US     int64   `json:"p50_us,omitempty"`
	P99US     int64   `json:"p99_us,omitempty"`
}

// benchReport is the schema every BENCH_*.json report shares: the
// host's parallelism plus one entry per measured harness.
type benchReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Loops       int          `json:"loops"`
	Entries     []benchEntry `json:"entries"`
}

func timeIt(fn func()) int64 {
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}
