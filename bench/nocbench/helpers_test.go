package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
)

// inProcess is a serve.Server behind httptest: the serve workloads'
// daemon for tests, so that they need no schedd binary.
type inProcess struct {
	srv     *serve.Server
	ts      *httptest.Server
	stopped bool
}

func (d *inProcess) url() string { return d.ts.URL }
func (d *inProcess) pid() int    { return os.Getpid() }

func (d *inProcess) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.ts.Close()
	return d.srv.Close()
}

// inProcessLauncher starts in-process daemons; wrap, when non-nil,
// stands between the client and the server's handler.
func inProcessLauncher(wrap func(http.Handler) http.Handler) launcher {
	return func(cacheEntries int) (daemon, error) {
		s := serve.New(serve.Options{Workers: workers, CacheEntries: cacheEntries, Telemetry: telemetry.NewCollector(nil)})
		if err := s.Warmup(); err != nil {
			_ = s.Close()
			return nil, err
		}
		h := s.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		return &inProcess{srv: s, ts: httptest.NewServer(h)}, nil
	}
}

// smallConfig is a run small enough for go test: scale 0.02 and a
// fifth of a second per measured phase.
func smallConfig(seed int64, trace bool, wrap func(http.Handler) http.Handler) config {
	return config{seed: seed, seconds: 0.2, trace: trace, scale: 0.02, launch: inProcessLauncher(wrap)}
}

func runSmall(t *testing.T, name string, cfg config) (*result, error) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return runWorkload(context.Background(), cfg, w)
}
