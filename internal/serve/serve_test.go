package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
	"nocsched/internal/verify"
)

// testSpec is the platform every server test schedules onto.
var testSpec = noc.PlatformSpec{Topology: "mesh", Width: 3, Height: 3, Routing: "xy", Bandwidth: 256}

// testWorkload builds one deterministic workload: the request body
// plus the graph/ACG pair needed to re-load and re-verify responses.
func testWorkload(t testing.TB, seed int64, ntasks int, algo string) ([]byte, *ctg.Graph, *energy.ACG) {
	t.Helper()
	platform, err := testSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, int(seed)%tgff.SuiteSize, platform)
	p.Name = fmt.Sprintf("serve-test-%d-%d", seed, ntasks)
	p.Seed = seed
	p.NumTasks = ntasks
	g, err := tgff.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec
	body, err := json.Marshal(Request{Graph: g, Platform: &spec, Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	return body, g, acg
}

// testServer starts a Server (already marked ready) plus its HTTP
// front; both are torn down with the test.
func testServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewCollector(nil)
	}
	s := New(opts)
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// post submits one request body and decodes the response.
func post(t *testing.T, url string, body []byte) (int, *Response, *ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var r Response
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("decode 200 body: %v\n%s", err, raw)
		}
		return resp.StatusCode, &r, nil
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode %d body: %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, nil, &e
}

func counterOf(s *Server, name string) int64 {
	for _, c := range s.opts.Telemetry.R().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestServeSolveHitBitIdentical is the cache-correctness core: a cold
// solve followed by a repeat submission returns byte-identical
// schedule documents, the decoded schedules are bit-identical under
// sched.Diff, and both pass the conformance oracle.
func TestServeSolveHitBitIdentical(t *testing.T) {
	body, g, acg := testWorkload(t, 3, 24, "eas")
	s, ts := testServer(t, Options{Workers: 2})

	code1, r1, _ := post(t, ts.URL, body)
	if code1 != http.StatusOK {
		t.Fatalf("cold POST = %d", code1)
	}
	if r1.Cache != CacheMiss {
		t.Fatalf("cold response cache = %q, want %q", r1.Cache, CacheMiss)
	}
	code2, r2, _ := post(t, ts.URL, body)
	if code2 != http.StatusOK {
		t.Fatalf("warm POST = %d", code2)
	}
	if r2.Cache != CacheHit {
		t.Fatalf("warm response cache = %q, want %q", r2.Cache, CacheHit)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("digest changed between submissions: %s vs %s", r1.Digest, r2.Digest)
	}
	if !bytes.Equal(r1.Schedule, r2.Schedule) {
		t.Error("hit returned different schedule bytes than the miss")
	}
	s1, err := sched.ReadJSON(bytes.NewReader(r1.Schedule), g, acg)
	if err != nil {
		t.Fatalf("re-load miss schedule: %v", err)
	}
	s2, err := sched.ReadJSON(bytes.NewReader(r2.Schedule), g, acg)
	if err != nil {
		t.Fatalf("re-load hit schedule: %v", err)
	}
	if d := sched.Diff(s1, s2); d != "" {
		t.Errorf("hit diverged from miss:\n%s", d)
	}
	if rep := verify.Check(s1); len(rep.Structural()) != 0 {
		t.Errorf("served schedule fails the oracle: %+v", rep.Findings)
	}
	// The energy split must re-derive bit-exactly from the schedule.
	b := s1.Breakdown()
	if r1.Energy.TotalNJ != b.Total || r1.Energy.ComputeNJ != b.Computation || r1.Energy.CommNJ != b.Communication {
		t.Errorf("energy split %+v does not match re-derived breakdown %+v", r1.Energy, b)
	}
	sw, lk := s1.CommEnergySplit()
	if r1.Energy.SwitchNJ != sw || r1.Energy.LinkNJ != lk {
		t.Errorf("switch/link split (%g,%g) != re-derived (%g,%g)", r1.Energy.SwitchNJ, r1.Energy.LinkNJ, sw, lk)
	}
	if solves := counterOf(s, MetricSolves); solves != 1 {
		t.Errorf("solves = %d, want 1 (hit must not re-solve)", solves)
	}
	if hits := counterOf(s, MetricCacheHits); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestServeAlgorithms covers the three schedulers plus eas-base
// through the service path.
func TestServeAlgorithms(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	for _, algo := range []string{"eas", "eas-base", "edf", "dls"} {
		body, g, acg := testWorkload(t, 11, 18, algo)
		code, r, e := post(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("%s: POST = %d (%+v)", algo, code, e)
		}
		s, err := sched.ReadJSON(bytes.NewReader(r.Schedule), g, acg)
		if err != nil {
			t.Fatalf("%s: re-load: %v", algo, err)
		}
		if rep := verify.Check(s); len(rep.Structural()) != 0 {
			t.Errorf("%s: served schedule fails the oracle", algo)
		}
	}
}

// TestServeSingleflight: a thundering herd of identical cold
// submissions costs exactly one engine solve; every request gets a
// complete, identical answer.
func TestServeSingleflight(t *testing.T) {
	body, _, _ := testWorkload(t, 5, 60, "eas")
	s, ts := testServer(t, Options{Workers: 2, QueueDepth: 64})

	const herd = 12
	var wg sync.WaitGroup
	responses := make([]*Response, herd)
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], responses[i], _ = post(t, ts.URL, body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(responses[i].Schedule, responses[0].Schedule) {
			t.Errorf("request %d: schedule bytes diverge", i)
		}
	}
	if solves := counterOf(s, MetricSolves); solves != 1 {
		t.Errorf("herd of %d cost %d solves, want 1", herd, solves)
	}
	// Every non-solving request either joined the flight or hit the
	// cache after it landed.
	shared := counterOf(s, MetricShared)
	hits := counterOf(s, MetricCacheHits)
	if shared+hits != herd-1 {
		t.Errorf("shared(%d)+hits(%d) = %d, want %d", shared, hits, shared+hits, herd-1)
	}
}

// TestServeEvictionUnderPressure: a 2-entry cache serving 3 distinct
// workloads evicts LRU; the evicted workload re-solves on return.
func TestServeEvictionUnderPressure(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, CacheEntries: 2})
	bodies := make([][]byte, 3)
	for i := range bodies {
		bodies[i], _, _ = testWorkload(t, int64(20+i), 14, "edf")
	}
	for _, b := range bodies {
		if code, _, _ := post(t, ts.URL, b); code != http.StatusOK {
			t.Fatalf("POST = %d", code)
		}
	}
	if n := cacheLen(s); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if ev := counterOf(s, MetricCacheEvictions); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// Workload 0 was evicted: serving it again is a fresh solve.
	code, r, _ := post(t, ts.URL, bodies[0])
	if code != http.StatusOK {
		t.Fatalf("re-POST = %d", code)
	}
	if r.Cache != CacheMiss {
		t.Errorf("evicted workload came back as %q, want %q", r.Cache, CacheMiss)
	}
	if solves := counterOf(s, MetricSolves); solves != 4 {
		t.Errorf("solves = %d, want 4 (3 cold + 1 re-solve)", solves)
	}
}

// TestServeBadRequests: malformed bodies and semantic mismatches are
// 400s with the typed code, never 5xx.
func TestServeBadRequests(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"missing graph", `{"algorithm":"eas"}`},
		{"unknown algorithm", `{"graph":{"name":"g","tasks":[],"edges":[]},"algorithm":"sa"}`},
		{"cyclic graph", `{"graph":{"name":"g","tasks":[
			{"name":"a","exec_time":[1,1,1,1,1,1,1,1,1],"energy":[1,1,1,1,1,1,1,1,1]},
			{"name":"b","exec_time":[1,1,1,1,1,1,1,1,1],"energy":[1,1,1,1,1,1,1,1,1]}],
			"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":0,"volume":1}]}}`},
	}
	for _, c := range cases {
		code, _, e := post(t, ts.URL, []byte(c.body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
			continue
		}
		if e.Error != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", c.name, e.Error)
		}
	}
	// PE-count mismatch: a 9-PE graph on a 4x4 platform.
	body, _, _ := testWorkload(t, 3, 10, "eas")
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	// A timeout that would wrap negative as a time.Duration, and so
	// expire before the solve starts, is rejected before queueing.
	req.TimeoutMS = math.MaxInt64
	overflow, _ := json.Marshal(req)
	if code, _, e := post(t, ts.URL, overflow); code != http.StatusBadRequest || e.Error != "bad_request" ||
		!strings.Contains(e.Detail, "timeout_ms") {
		t.Errorf("timeout_ms overflow: status %d %+v, want 400 bad_request naming timeout_ms", code, e)
	}
	req.TimeoutMS = 0
	req.Platform = &noc.PlatformSpec{Topology: "mesh", Width: 4, Height: 4, Bandwidth: 256}
	mismatch, _ := json.Marshal(req)
	if code, _, e := post(t, ts.URL, mismatch); code != http.StatusBadRequest || e.Error != "bad_request" {
		t.Errorf("PE mismatch: status %d code %v, want 400 bad_request", code, e)
	}
	// A mismatch is rejected before its platform is built, so a huge
	// spec costs nothing: a 16-PE graph on a 1000x1000 mesh.
	spec := DefaultPlatform()
	platform, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.NumTasks = 6
	g, err := tgff.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	huge, _ := json.Marshal(Request{Graph: g, Platform: &noc.PlatformSpec{Topology: "mesh", Width: 1000, Height: 1000, Bandwidth: 256}})
	if code, _, e := post(t, ts.URL, huge); code != http.StatusBadRequest || e.Error != "bad_request" ||
		!strings.Contains(e.Detail, "16 PEs but the platform has 1000000") {
		t.Errorf("16-PE graph on 1000x1000: status %d %+v, want 400 bad_request naming both counts", code, e)
	}
	s.mu.Lock()
	built := s.acgs.len()
	s.mu.Unlock()
	if built != 0 {
		t.Errorf("ACG cache holds %d platforms after rejected mismatches, want 0", built)
	}
}

// TestServeQueueFull429: with a single busy worker and a 1-deep queue,
// surplus distinct submissions are rejected 429 queue_full (retryable)
// — not 503, which is reserved for drain. The engine's queue-depth
// gauge sequences the test: blocker A provably occupies the worker and
// blocker B provably fills the one queue slot before the probe fires.
func TestServeQueueFull429(t *testing.T) {
	// The long default timeout keeps the deliberately huge blockers from
	// tripping the per-request deadline under the race detector's
	// slowdown — this test is about admission, not deadlines.
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Minute})
	// Every body is pre-built: workload generation must not eat into
	// the window during which the worker is provably busy. Blocker A is
	// sized for a multi-second solve so the saturated state survives
	// scheduler jitter when the whole suite shares the CPU.
	blockerA, _, _ := testWorkload(t, 40, 3000, "eas")
	blockerB, _, _ := testWorkload(t, 41, 2000, "eas")
	probes := make([][]byte, 8)
	for i := range probes {
		probes[i], _, _ = testWorkload(t, int64(100+i), 12, "edf")
	}
	blockerDone := make(chan int, 2)
	go func() {
		code, _, _ := post(t, ts.URL, blockerA)
		blockerDone <- code
	}()
	waitFor(t, 30*time.Second, func() bool {
		s.mu.Lock()
		inflight := len(s.flights)
		s.mu.Unlock()
		return inflight == 1 && gaugeOf(s, batch.MetricQueueDepth) == 0
	})
	go func() {
		code, _, _ := post(t, ts.URL, blockerB)
		blockerDone <- code
	}()
	waitFor(t, 30*time.Second, func() bool { return gaugeOf(s, batch.MetricQueueDepth) == 1 })
	// Worker solving A, queue holding B: distinct submissions bounce.
	saw429 := false
	for _, body := range probes {
		code, _, e := post(t, ts.URL, body)
		if code == http.StatusTooManyRequests {
			saw429 = true
			if e.Error != "queue_full" {
				t.Errorf("429 code = %q, want queue_full", e.Error)
			}
			break
		}
		if code >= 500 {
			t.Fatalf("unexpected %d while the queue was full", code)
		}
	}
	if !saw429 {
		t.Error("never saw a 429 with a saturated 1-worker/1-slot engine")
	}
	if counterOf(s, MetricRejectedFull) == 0 {
		t.Error("serve_rejected_full_total stayed 0")
	}
	for i := 0; i < 2; i++ {
		if code := <-blockerDone; code != http.StatusOK {
			t.Fatalf("blocker finished %d", code)
		}
	}
}

func gaugeOf(s *Server, name string) float64 {
	for _, g := range s.opts.Telemetry.R().Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestServeRequestDeadline: an expired per-request deadline answers
// 504 deadline_exceeded, the solve still completes and lands in the
// cache, and the retry hits it.
func TestServeRequestDeadline(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	body, _, _ := testWorkload(t, 6, 200, "eas")
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.TimeoutMS = 1
	impatient, _ := json.Marshal(req)
	code, _, e := post(t, ts.URL, impatient)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("impatient POST = %d, want 504", code)
	}
	if e.Error != "deadline_exceeded" {
		t.Errorf("504 code = %q, want deadline_exceeded", e.Error)
	}
	// The abandoned solve finishes in the background and is cached.
	waitFor(t, 30*time.Second, func() bool { return cacheLen(s) == 1 })
	code, r, _ := post(t, ts.URL, body)
	if code != http.StatusOK || r.Cache != CacheHit {
		t.Fatalf("retry after deadline: %d %q, want 200 hit", code, r.Cache)
	}
}

// TestServeDrain is the shutdown contract: after Drain begins,
// readiness flips to not-ready immediately and new submissions are
// 503 draining, while the in-flight request completes with 200.
func TestServeDrain(t *testing.T) {
	col := telemetry.NewCollector(nil)
	s := New(Options{Workers: 1, Telemetry: col})
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow, _, _ := testWorkload(t, 50, 400, "eas")
	inflight := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts.URL, slow)
		inflight <- code
	}()
	// The slow solve is normally still in flight here; if the scheduler
	// starves this goroutine past its completion, the cached result is
	// the stable evidence it ran — the drain contract below holds either
	// way.
	waitFor(t, 30*time.Second, func() bool {
		s.mu.Lock()
		n := len(s.flights)
		s.mu.Unlock()
		return n == 1 || cacheLen(s) == 1
	})
	if !s.Ready() {
		t.Fatal("server not ready before drain")
	}

	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()
	waitFor(t, 30*time.Second, func() bool { return s.draining.Load() })

	// Readiness flips immediately — before the in-flight solve is done.
	if s.Ready() {
		t.Error("Ready() true while draining")
	}
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d during drain, want 503", code)
	}
	// New submissions are rejected 503 with the typed code.
	fresh, _, _ := testWorkload(t, 51, 12, "edf")
	code, _, e := post(t, ts.URL, fresh)
	if code != http.StatusServiceUnavailable {
		t.Errorf("new submission during drain = %d, want 503", code)
	} else if e.Error != "draining" {
		t.Errorf("503 code = %q, want draining", e.Error)
	}
	// The in-flight request still completes successfully.
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request finished %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
}

// TestServeWarmupFlipsReadiness: a fresh server is not ready; Warmup
// solves its built-in workload and flips readiness.
func TestServeWarmupFlipsReadiness(t *testing.T) {
	s := New(Options{Workers: 1, Telemetry: telemetry.NewCollector(nil)})
	defer func() { _ = s.Close() }()
	if s.Ready() {
		t.Fatal("fresh server claims ready before warmup")
	}
	if err := s.Warmup(); err != nil {
		t.Fatalf("Warmup: %v", err)
	}
	if !s.Ready() {
		t.Fatal("server not ready after warmup")
	}
	if cacheLen(s) != 1 {
		t.Errorf("warmup left %d cache entries, want 1", cacheLen(s))
	}
}

// TestServerACGSharing: equivalent platform specs resolve to one
// shared ACG, so its routes are built once.
func TestServerACGSharing(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 1})
	specA := noc.PlatformSpec{Topology: "mesh", Width: 3, Height: 3, Routing: "xy", Bandwidth: 256}
	specB := noc.PlatformSpec{Width: 3, Height: 3, Bandwidth: 256} // defaults spelled differently
	keyA, err := platformKey(specA)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := platformKey(specB)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("equivalent specs got distinct platform keys")
	}
	a1, err := s.acgFor(keyA, specA)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.acgFor(keyB, specB)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("equivalent platforms built two ACGs")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}
