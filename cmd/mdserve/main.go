// Command mdserve is a long-running machine-description service: a
// stdlib-only net/http JSON daemon that compiles, caches and serves
// reduced machine descriptions and batched contention queries.
//
// Usage:
//
//	mdserve                                   # serve on :8080
//	mdserve -addr 127.0.0.1:0                 # ephemeral port (printed on stdout)
//	mdserve -preload cydra5,mips -cache 64    # boot with built-ins registered
//
// Endpoints (see internal/serve): POST /v1/reduce, POST /v1/batch,
// POST /v1/sessions (+ /{id}/ops, /{id}/stream NDJSON, GET/DELETE),
// GET /v1/machines, GET /v1/metrics, GET /healthz.
//
// Reductions go through a capacity-bounded content-keyed LRU (-cache);
// the machine registry (-max-machines) and the scheduling-session table
// (-max-sessions, idle expiry -session-ttl) are LRU tables, so no
// wire workload can grow the process without bound. Requests are
// admitted through a concurrency gate (-max-inflight) with a
// per-request deadline (-deadline); streamed sessions hold a reserved
// stream sub-quota of the gate. SIGINT/SIGTERM trigger a graceful
// drain: the listener closes, in-flight requests finish (up to -drain),
// then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		cacheCap    = flag.Int("cache", 128, "reduction-LRU capacity in entries (<0 = unbounded)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently admitted reduce/batch requests (0 = 2x GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 30*time.Second, "per-request deadline (admission wait + execution)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain timeout after SIGTERM/SIGINT")
		preload     = flag.String("preload", "", "comma-separated built-in machines to register at boot: "+strings.Join(repro.BuiltinMachines(), ", "))
		metrics     = flag.Bool("metrics", true, "collect internal/obs metrics (served at /v1/metrics)")
		maxMachines = flag.Int("max-machines", 0, "machine-registry capacity in entries (0 = 256, <0 = unbounded)")
		maxSessions = flag.Int("max-sessions", 0, "scheduling-session table capacity (0 = 1024, <0 = unbounded)")
		sessionTTL  = flag.Duration("session-ttl", 0, "idle scheduling-session expiry (0 = 5m, <0 = never)")
	)
	flag.Parse()
	if err := run(*addr, *cacheCap, *maxInflight, *maxMachines, *maxSessions, *sessionTTL, *deadline, *drain, *preload, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "mdserve:", err)
		os.Exit(1)
	}
}

func run(addr string, cacheCap, maxInflight, maxMachines, maxSessions int, sessionTTL, deadline, drain time.Duration, preload string, metrics bool) error {
	if metrics {
		obs.Default().SetEnabled(true)
	}
	if cacheCap < 0 {
		cacheCap = -1 // serve.Config: < 0 means unbounded
	}
	s := serve.New(serve.Config{
		CacheCapacity:  cacheCap,
		MaxInFlight:    maxInflight,
		RequestTimeout: deadline,
		MaxMachines:    maxMachines,
		MaxSessions:    maxSessions,
		SessionTTL:     sessionTTL,
	})

	if preload != "" {
		for _, name := range strings.Split(preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			m := repro.BuiltinMachine(name)
			if m == nil {
				return fmt.Errorf("unknown -preload machine %q (have: %s)", name, strings.Join(repro.BuiltinMachines(), ", "))
			}
			red, err := s.Register(name, m, core.Objective{Kind: core.ResUses})
			if err != nil {
				return fmt.Errorf("preload %s: %w", name, err)
			}
			fmt.Printf("mdserve: preloaded %s (%d -> %d resources)\n", name, len(m.Resources), red.NumResources())
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address is the smoke harness's handshake: with -addr
	// host:0 the actual port is only known here.
	fmt.Printf("mdserve: listening on http://%s\n", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // Serve never returns nil; ErrServerClosed can't happen before Shutdown
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	fmt.Println("mdserve: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("mdserve: drained, bye")
	return nil
}
