// Command schedd is the scheduling daemon: a long-running JSON-over-
// HTTP service (internal/serve) that answers POST /v1/schedule with
// energy-aware NoC schedules, backed by the internal/batch engine, a
// content-addressed schedule cache with singleflight collapse, and
// typed backpressure (429 queue-full, 503 draining, 504 deadline).
// The ops surface — /metrics with the serve_*, batch_*, sched_*,
// energy_* and runtime_* series, /healthz, /readyz, /snapshot,
// /debug/pprof/ — is mounted on the same listener.
//
// Usage:
//
//	schedd [-addr 127.0.0.1:9821] [-workers N] [-queue-depth N]
//	       [-cache-entries N] [-cache-bytes N] [-default-timeout 30s]
//	       [-max-body-bytes N] [-drain-timeout 30s] [-no-warmup]
//
// Lifecycle: the daemon warms up (one miniature workload through the
// full solve path) before flipping /readyz to ready, and "schedd:
// ready on http://ADDR" on stderr marks the moment it accepts traffic.
// SIGTERM or SIGINT begins a graceful drain: /readyz flips to
// not-ready immediately, new submissions are answered 503, in-flight
// solves finish and deliver, then the HTTP listener shuts down. After
// the drain the daemon audits itself for leaked goroutines and exits
// non-zero with a "goroutine-leak" report on stderr if the engine or
// handlers left anything running — so a clean exit 0 doubles as a
// leak check in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nocsched/internal/obs"
	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
)

// The HTTP server's timeouts: a stalled connection cannot hold its
// goroutine for good. Headers get what internal/obs's ops server gives
// them; an idle keep-alive connection lasts far longer than the gaps a
// load generator leaves between its requests.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for handler h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. ready, when non-nil, receives the
// listener's base URL once /readyz is serving ready (tests use it; the
// CLI announces on stderr instead).
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:9821", "listen address")
		workers      = fs.Int("workers", 0, "batch engine workers (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue-depth", 0, "admission queue bound (0 = 2*workers)")
		cacheEntries = fs.Int("cache-entries", 0, "schedule cache entry bound, and the body memo's (0 = 1024)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "schedule cache byte bound, and on its own the body memo's (0 = 64 MiB)")
		defTimeout   = fs.Duration("default-timeout", 30*time.Second, "per-request deadline when the request carries no timeout_ms")
		maxBody      = fs.Int64("max-body-bytes", 0, "request body bound (0 = 8 MiB)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a graceful drain may take before giving up")
		noWarmup     = fs.Bool("no-warmup", false, "skip the warmup solve and become ready immediately")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Install the signal handler before taking the goroutine baseline:
	// the runtime's signal-delivery goroutine outlives signal.Stop by
	// design and must not read as a leak.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	baseline := runtime.NumGoroutine()
	col := telemetry.NewCollector(nil)
	rt := obs.StartRuntime(col.R(), time.Second)
	s := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		DefaultTimeout: *defTimeout,
		MaxBodyBytes:   *maxBody,
		Telemetry:      col,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(s.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *noWarmup {
		s.MarkReady()
	} else if err := s.Warmup(); err != nil {
		_ = srv.Close()
		_ = s.Close()
		return err
	}
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(stderr, "schedd: ready on %s\n", url)
	if ready != nil {
		ready <- url
	}

	select {
	case got := <-sig:
		fmt.Fprintf(stderr, "schedd: %s: draining...\n", got)
	case err := <-serveErr:
		_ = s.Close()
		return fmt.Errorf("listener: %w", err)
	}

	// Graceful drain: stop admission first (in-flight solves finish and
	// their waiters get answers), then close the HTTP side.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "schedd: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "schedd: http shutdown: %v\n", err)
	}
	if err := s.Close(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("listener: %w", err)
	}
	rt.Close()

	if leaked := settleGoroutines(baseline, 2*time.Second); leaked > 0 {
		fmt.Fprintf(stderr, "schedd: goroutine-leak: %d goroutines above the startup baseline of %d\n",
			leaked, baseline)
		return errors.New("goroutine leak after drain")
	}
	fmt.Fprintln(stderr, "schedd: drained cleanly")
	return nil
}

// settleGoroutines waits for the goroutine count to return to the
// startup baseline (idle HTTP keep-alive conns and timer goroutines
// need a beat to unwind) and returns how many remain above it.
func settleGoroutines(baseline int, window time.Duration) int {
	deadline := time.Now().Add(window)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
