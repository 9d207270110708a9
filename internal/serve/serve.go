// Package serve is the scheduling-as-a-service layer: a long-running
// JSON-over-HTTP daemon front for the internal/batch engine. It turns
// the one-shot CLI flow (parse workload, build routes, run EAS/EDF/DLS,
// print) into an online service that answers repeated mapping/
// scheduling requests over stable platforms, the shape run-time NoC
// mapping work assumes.
//
// Three mechanisms make repeated traffic cheap and safe:
//
//   - a content-addressed schedule cache: every workload canonicalizes
//     to a digest (see WorkloadDigest), and a digest that has been
//     solved before is answered from an immutable cached entry — the
//     rendered response bytes, no engine time — under LRU eviction
//     with entry-count and byte bounds. A body whose exact bytes have
//     resolved before skips decoding and digesting too: a memo finds
//     the body by a seeded maphash, checks it byte for byte against
//     its own copy, and names its digest;
//   - singleflight collapse: concurrent identical submissions join the
//     one in-flight solve instead of queueing duplicates, so a
//     thundering herd of one hot workload costs one solve;
//   - typed backpressure: admission is bounded by the batch engine's
//     queue. A full queue rejects with 429 (retryable), a draining
//     server with 503 (terminal), and an expired per-request deadline
//     with 504 — the three causes are distinguishable both by status
//     and by the machine-readable "error" code in the body.
//
// The cold path has no encoding/json in it, so that a miss costs
// little more than its solve: the body is decoded in one pass straight
// into the graph's arrays (see decodeRequest and ctg.DecodeJSON), the
// canonical form streams into SHA-256 through an appender
// (WorkloadDigest), and the response is appended once, schedule
// included (renderEntry), all through internal/jsonx, which keeps
// encoding/json's acceptance rules and output bytes exactly.
//
// Every cold solve is spot-checked by the internal/verify oracle
// before it is cached or returned: a schedule with structural findings
// (anything beyond deadline misses, which are a legitimate reported
// outcome) is a 500, never a cache entry.
//
// Lifecycle: New starts the engine, Warmup runs a built-in miniature
// workload end to end and then flips readiness, Drain stops admission
// (immediately flipping /readyz to not-ready and answering new
// submissions 503) while in-flight solves finish and their waiters get
// 200s. The ops surface (/metrics with the serve_* series, /healthz,
// /readyz, /snapshot, pprof) is the internal/obs handler mounted next
// to /v1/schedule.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/jsonx"
	"nocsched/internal/noc"
	"nocsched/internal/obs"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
	"nocsched/internal/verify"
)

// Options configures a Server.
type Options struct {
	// Workers is the batch engine's instance-level parallelism; <= 0
	// selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a request arriving while
	// the queue is full is rejected with 429. <= 0 selects 2*Workers.
	QueueDepth int
	// CacheEntries bounds the schedule cache's entry count, and the
	// body memo's record count; <= 0 selects 1024.
	CacheEntries int
	// CacheBytes bounds the schedule cache's accounted bytes, and on
	// its own as well the bytes of request bodies the body memo keeps;
	// <= 0 selects 64 MiB.
	CacheBytes int64
	// ACGEntries bounds the platform→ACG cache; <= 0 selects 64.
	ACGEntries int
	// DefaultTimeout is the per-request deadline applied when a
	// request carries no timeout_ms; <= 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies; <= 0 selects 8 MiB.
	MaxBodyBytes int64
	// Telemetry publishes the serve_* series (and is forwarded to the
	// engine and schedulers). Nil disables collection.
	Telemetry *telemetry.Collector
}

// The serve_* telemetry series (see the README metric catalog).
const (
	// MetricRequests counts /v1/schedule requests (count).
	MetricRequests = "serve_requests_total"
	// MetricInflight gauges requests currently being handled.
	MetricInflight = "serve_inflight"
	// MetricLatency is the end-to-end request latency histogram (µs),
	// queueing and solving included.
	MetricLatency = "serve_request_latency_us"
	// MetricSolves counts cold solves completed and cached (count).
	MetricSolves = "serve_solves_total"
	// MetricSolveErrors counts scheduler-failed solves (count).
	MetricSolveErrors = "serve_solve_errors_total"
	// MetricVerifyFailures counts solves rejected by the conformance
	// oracle before caching (count); anything above zero is a bug.
	MetricVerifyFailures = "serve_verify_failures_total"
	// MetricRejectedFull counts 429s from a full admission queue.
	MetricRejectedFull = "serve_rejected_full_total"
	// MetricRejectedDrain counts 503s from a draining server.
	MetricRejectedDrain = "serve_rejected_drain_total"
	// MetricDeadlineExpired counts 504s from expired request deadlines.
	MetricDeadlineExpired = "serve_deadline_expired_total"
	// MetricShared counts requests that joined an in-flight identical
	// solve instead of submitting their own (singleflight collapse).
	MetricShared = "serve_singleflight_shared_total"
	// MetricCacheHits / MetricCacheMisses / MetricCacheEvictions are
	// the schedule-cache counters; MetricCacheEntries and
	// MetricCacheBytes gauge its current occupancy.
	MetricCacheHits      = "serve_cache_hits_total"
	MetricCacheMisses    = "serve_cache_misses_total"
	MetricCacheEvictions = "serve_cache_evictions_total"
	MetricCacheEntries   = "serve_cache_entries"
	MetricCacheBytes     = "serve_cache_bytes"
	// MetricBodyMemoHits counts requests answered from the raw-body
	// memo: a body seen before whose digest was still cached, served
	// without decoding or digesting it (count; each is also one of
	// MetricCacheHits).
	MetricBodyMemoHits = "serve_body_memo_hits_total"
)

// latencyBounds is the fixed bucket layout of MetricLatency (µs).
var latencyBounds = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000, 1000000, 5000000}

// Cache provenance values of Response.Cache.
const (
	CacheHit    = "hit"    // answered from the schedule cache
	CacheMiss   = "miss"   // this request ran the solve
	CacheShared = "shared" // joined another request's in-flight solve
)

// EnergySplit is the response's Eq. 2/3 energy decomposition: total =
// compute + comm, and comm further splits into the switch-fabric
// (ESbit) and inter-tile-link (ELbit) terms.
type EnergySplit struct {
	TotalNJ   float64 `json:"total_nj"`
	ComputeNJ float64 `json:"compute_nj"`
	CommNJ    float64 `json:"comm_nj"`
	SwitchNJ  float64 `json:"switch_nj"`
	LinkNJ    float64 `json:"link_nj"`
}

// Response is the 200 body of POST /v1/schedule. Every field except
// Cache is digest-addressed and cached immutably, so repeated
// identical submissions receive bit-identical values (Schedule
// included, byte for byte).
type Response struct {
	// Digest is the workload's content address.
	Digest string `json:"digest"`
	// Cache is the response's provenance: CacheHit, CacheMiss or
	// CacheShared.
	Cache string `json:"cache"`
	// Algorithm is the algorithm that produced the schedule, as the
	// schedule itself records it.
	Algorithm string `json:"algorithm"`
	// Schedule is the sched.Schedule JSON export (sched.WriteJSON
	// format), re-loadable with sched.ReadJSON against the request's
	// graph and platform and re-checkable with cmd/schedverify.
	Schedule json.RawMessage `json:"schedule"`
	// Energy is the Eq. 2/3 split.
	Energy EnergySplit `json:"energy"`
	// Makespan is the schedule length in time units.
	Makespan int64 `json:"makespan"`
	// DeadlineMisses counts tasks finishing past their hard deadline —
	// a reported outcome, not an error.
	DeadlineMisses int `json:"deadline_misses"`
	// VerifyFindings is the conformance oracle's finding count for
	// this schedule. Structural findings are never served (they 500
	// instead), so any count here is deadline findings and equals
	// DeadlineMisses.
	VerifyFindings int `json:"verify_findings"`
	// SolveUS is the cold solve's scheduling latency in microseconds
	// (cached along with the schedule: hits echo the original solve).
	SolveUS int64 `json:"solve_us"`
}

// ErrorResponse is the non-200 body: a stable machine-readable code
// plus a human detail.
type ErrorResponse struct {
	// Error is one of "bad_request", "queue_full", "draining",
	// "deadline_exceeded", "solve_failed", "verify_failed".
	Error string `json:"error"`
	// Detail explains the specific failure.
	Detail string `json:"detail,omitempty"`
}

// flight is one in-progress solve; concurrent identical submissions
// share it. entry/err are written once, before done is closed.
type flight struct {
	digest string
	done   chan struct{}
	entry  *cacheEntry
	err    error
}

// workload is a resolved request: parsed, validated, digested, and
// bound to a (possibly shared) ACG.
type workload struct {
	digest    string
	algorithm string
	graph     *ctg.Graph
	acg       *energy.ACG
	timeout   time.Duration
}

// Server is the scheduling daemon core: one long-lived batch engine
// stream behind a content-addressed cache, with HTTP in front.
type Server struct {
	opts   Options
	engine *batch.Engine
	stream *batch.Stream
	cancel context.CancelFunc

	mu         sync.Mutex // guards cache, flights, acgs, acgFlights, memo
	cache      *schedCache
	flights    map[string]*flight
	acgs       *acgCache
	acgFlights map[string]*acgFlight
	memo       *bodyMemo
	// buildACG is the package's buildACG; a field so a test can count
	// builds.
	buildACG func(noc.PlatformSpec) (*energy.ACG, error)

	submitMu sync.Mutex // serializes stream admission + pending map
	pending  map[int]*flight

	ready    atomic.Bool
	draining atomic.Bool

	collectorDone chan struct{}

	mRequests, mSolves, mSolveErrors, mVerifyFailures *telemetry.Counter
	mRejectedFull, mRejectedDrain, mDeadlineExpired   *telemetry.Counter
	mShared, mMemoHits                                *telemetry.Counter
	mInflight                                         *telemetry.Gauge
	mLatency                                          *telemetry.Histogram
}

// New starts a Server: the engine's workers spin up immediately, but
// /readyz stays not-ready until Warmup (or MarkReady) flips it.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		w := opts.Workers
		if w <= 0 {
			w = 2
		}
		opts.QueueDepth = 2 * w
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 1024
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.ACGEntries <= 0 {
		opts.ACGEntries = 64
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	s := &Server{
		opts: opts,
		engine: batch.New(batch.Options{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			Telemetry:  opts.Telemetry,
		}),
		flights:       make(map[string]*flight),
		acgFlights:    make(map[string]*acgFlight),
		buildACG:      buildACG,
		pending:       make(map[int]*flight),
		collectorDone: make(chan struct{}),
	}
	r := opts.Telemetry.R()
	s.cache = newSchedCache(opts.CacheEntries, opts.CacheBytes, r)
	s.acgs = newLRU[string, *energy.ACG](opts.ACGEntries)
	s.memo = newBodyMemo(opts.CacheEntries, opts.CacheBytes)
	if r != nil {
		s.mRequests = r.Counter(MetricRequests)
		s.mSolves = r.Counter(MetricSolves)
		s.mSolveErrors = r.Counter(MetricSolveErrors)
		s.mVerifyFailures = r.Counter(MetricVerifyFailures)
		s.mRejectedFull = r.Counter(MetricRejectedFull)
		s.mRejectedDrain = r.Counter(MetricRejectedDrain)
		s.mDeadlineExpired = r.Counter(MetricDeadlineExpired)
		s.mShared = r.Counter(MetricShared)
		s.mMemoHits = r.Counter(MetricBodyMemoHits)
		s.mInflight = r.Gauge(MetricInflight)
		s.mLatency = r.Histogram(MetricLatency, latencyBounds)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.stream = s.engine.Stream(ctx)
	go s.collect()
	return s
}

// Ready reports whether the server should receive traffic: warmed up
// and not draining. Wire it into obs.Options.Ready (Handler does).
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// MarkReady flips readiness without a warmup run (tests, callers that
// warmed up on their own).
func (s *Server) MarkReady() { s.ready.Store(true) }

// Warmup pushes a built-in miniature workload through the entire cold
// path — decode, canonicalize, admit, solve, verify, render, cache —
// so the first real request pays no first-use costs (worker
// builders, code paths), then flips readiness. Errors leave the
// server not-ready.
func (s *Server) Warmup() error {
	spec := noc.PlatformSpec{Topology: "mesh", Width: 3, Height: 3, Routing: "xy", Bandwidth: 256}
	platform, err := spec.Build()
	if err != nil {
		return fmt.Errorf("serve: warmup platform: %w", err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Name = "serve-warmup"
	p.Seed = 1
	p.NumTasks = 16
	g, err := tgff.Generate(p)
	if err != nil {
		return fmt.Errorf("serve: warmup graph: %w", err)
	}
	var body jsonx.Writer
	body.BeginObject()
	body.Key("graph")
	g.AppendJSON(&body)
	body.Key("platform")
	spec.AppendJSON(&body)
	body.EndObject()
	var req Request
	if err := decodeRequest(body.Buf, &req); err != nil {
		return fmt.Errorf("serve: warmup request: %w", err)
	}
	wl, err := s.resolve(&req)
	if err != nil {
		return fmt.Errorf("serve: warmup: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), wl.timeout)
	defer cancel()
	if _, _, serr := s.schedule(ctx, wl); serr != nil {
		return fmt.Errorf("serve: warmup solve: %w", serr.cause)
	}
	s.ready.Store(true)
	return nil
}

// Handler returns the daemon's HTTP surface: POST /v1/schedule plus
// the internal/obs ops endpoints (/metrics, /healthz, /readyz,
// /snapshot, /debug/pprof/) with readiness wired to Ready.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.NewHandler(obs.Options{Registry: s.opts.Telemetry.R(), Ready: s.Ready}))
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	return mux
}

// Drain ends admission gracefully: readiness flips to not-ready
// immediately, new submissions are answered 503, and Drain returns
// once every in-flight solve has completed and delivered (or ctx
// expires). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) {
		s.ready.Store(false)
		s.submitMu.Lock()
		s.stream.Close()
		s.submitMu.Unlock()
	}
	select {
	case <-s.collectorDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down hard: queued-but-unstarted solves are abandoned
// with the context's error (their waiters get 503s) and Close returns
// when the engine has drained. Prefer Drain for graceful shutdown.
func (s *Server) Close() error {
	s.cancel()
	return s.Drain(context.Background())
}

// serveError pairs an HTTP status with a typed body.
type serveError struct {
	status int
	code   string
	cause  error
}

func (e *serveError) Error() string { return e.cause.Error() }

// resolve parses and canonicalizes one request into a workload,
// binding it to the shared ACG for its platform.
func (s *Server) resolve(req *Request) (*workload, error) {
	if req.Graph == nil {
		return nil, errors.New("missing graph")
	}
	algorithm, err := normalizeAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	// A larger timeout would wrap negative as a time.Duration and
	// expire before the solve starts.
	if req.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return nil, fmt.Errorf("timeout_ms %d exceeds the maximum %d", req.TimeoutMS, math.MaxInt64/int64(time.Millisecond))
	}
	spec := DefaultPlatform()
	if req.Platform != nil {
		spec = *req.Platform
	}
	// Reject a PE-count mismatch before paying for the platform build:
	// every topology has Width×Height tiles. Build accepts only positive
	// dimensions, so no mismatched platform is ever built; invalid ones
	// get Build's own error.
	if spec.Width > 0 && spec.Height > 0 {
		if tiles := int64(spec.Width) * int64(spec.Height); tiles != int64(req.Graph.NumPEs()) {
			return nil, fmt.Errorf("graph %q is characterized for %d PEs but the platform has %d",
				req.Graph.Name, req.Graph.NumPEs(), tiles)
		}
	}
	digest, err := WorkloadDigest(algorithm, spec, req.Graph)
	if err != nil {
		return nil, err
	}
	pkey, err := platformKey(spec)
	if err != nil {
		return nil, err
	}
	acg, err := s.acgFor(pkey, spec)
	if err != nil {
		return nil, err
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return &workload{digest: digest, algorithm: algorithm, graph: req.Graph, acg: acg, timeout: timeout}, nil
}

// acgFlight is one in-progress platform build; concurrent first
// requests for its platform key wait for it instead of building their
// own. acg/err are written once, before done is closed.
type acgFlight struct {
	done chan struct{}
	acg  *energy.ACG
	err  error
}

// buildACG builds a platform and its ACG.
func buildACG(spec noc.PlatformSpec) (*energy.ACG, error) {
	platform, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return energy.BuildACG(platform, energy.DefaultModel())
}

// acgFor returns the shared ACG for a platform key, building (and
// caching) it on first use. The build runs outside the lock, once per
// key: requests that arrive while it runs wait for it.
func (s *Server) acgFor(key string, spec noc.PlatformSpec) (*energy.ACG, error) {
	s.mu.Lock()
	if acg := s.acgs.get(key); acg != nil {
		s.mu.Unlock()
		return acg, nil
	}
	if f := s.acgFlights[key]; f != nil {
		s.mu.Unlock()
		<-f.done
		return f.acg, f.err
	}
	f := &acgFlight{done: make(chan struct{})}
	s.acgFlights[key] = f
	s.mu.Unlock()
	f.acg, f.err = s.buildACG(spec)
	s.mu.Lock()
	if f.err == nil {
		s.acgs.put(key, f.acg)
	}
	delete(s.acgFlights, key)
	s.mu.Unlock()
	close(f.done)
	return f.acg, f.err
}

// instance maps a workload onto the batch engine's vocabulary.
func (wl *workload) instance() batch.Instance {
	inst := batch.Instance{Name: shortDigest(wl.digest) + "/" + wl.algorithm, Graph: wl.graph, ACG: wl.acg}
	switch wl.algorithm {
	case AlgoEAS:
		inst.Algorithm = batch.AlgoEAS
	case AlgoEASBase:
		inst.Algorithm = batch.AlgoEAS
		inst.EAS = eas.Options{DisableRepair: true}
	case AlgoEDF:
		inst.Algorithm = batch.AlgoEDF
	case AlgoDLS:
		inst.Algorithm = batch.AlgoDLS
	}
	return inst
}

func shortDigest(d string) string {
	if i := strings.IndexByte(d, ':'); i >= 0 && len(d) > i+13 {
		return d[i+1 : i+13]
	}
	return d
}

// schedule answers one resolved workload: cache hit, joined flight, or
// fresh submission. The returned entry is immutable and shared.
func (s *Server) schedule(ctx context.Context, wl *workload) (*cacheEntry, string, *serveError) {
	s.mu.Lock()
	if e := s.cache.get(wl.digest); e != nil {
		s.mu.Unlock()
		return e, CacheHit, nil
	}
	if f := s.flights[wl.digest]; f != nil {
		s.mu.Unlock()
		s.mShared.Inc()
		return s.await(ctx, f, CacheShared)
	}
	f := &flight{digest: wl.digest, done: make(chan struct{})}
	s.flights[wl.digest] = f
	s.mu.Unlock()

	s.submitMu.Lock()
	idx := s.stream.Submitted()
	err := s.stream.TrySubmit(wl.instance())
	if err == nil {
		s.pending[idx] = f
	}
	s.submitMu.Unlock()
	if err != nil {
		// Wake any joiners, then forget the flight.
		f.err = err
		close(f.done)
		s.mu.Lock()
		delete(s.flights, wl.digest)
		s.mu.Unlock()
		return nil, "", s.mapSubmitErr(err)
	}
	return s.await(ctx, f, CacheMiss)
}

// mapSubmitErr converts an admission error to its typed HTTP shape:
// ErrQueueFull is retryable (429), everything else means the stream is
// closed or cancelled — the server is going away (503).
func (s *Server) mapSubmitErr(err error) *serveError {
	if errors.Is(err, batch.ErrQueueFull) {
		s.mRejectedFull.Inc()
		return &serveError{status: http.StatusTooManyRequests, code: "queue_full", cause: err}
	}
	s.mRejectedDrain.Inc()
	return &serveError{status: http.StatusServiceUnavailable, code: "draining", cause: err}
}

// await blocks until the flight completes or the request's deadline
// expires. An expired deadline abandons only the wait: the solve runs
// to completion and lands in the cache for the retry. Expiry wins ties
// — when the result and the deadline become ready together, the
// response is deterministically 504, never a coin flip on select order.
func (s *Server) await(ctx context.Context, f *flight, src string) (*cacheEntry, string, *serveError) {
	expired := func() (*cacheEntry, string, *serveError) {
		s.mDeadlineExpired.Inc()
		cause := ctx.Err()
		if cause == nil {
			cause = context.DeadlineExceeded
		}
		return nil, "", &serveError{status: http.StatusGatewayTimeout, code: "deadline_exceeded", cause: cause}
	}
	// The wall clock, not ctx.Err(), decides expiry: the context's timer
	// can fire late, and a coin-flip select between a ready result and
	// an elapsed deadline would make 504s nondeterministic.
	pastDeadline := func() bool {
		dl, ok := ctx.Deadline()
		return (ok && !time.Now().Before(dl)) || ctx.Err() != nil
	}
	select {
	case <-f.done:
		if pastDeadline() {
			return expired()
		}
		if f.err != nil {
			return nil, "", s.mapFlightErr(f.err)
		}
		return f.entry, src, nil
	case <-ctx.Done():
		return expired()
	}
}

// mapFlightErr types a completed-with-error flight: cancellation means
// drain/shutdown (503), a verification rejection is verify_failed, and
// anything else is the scheduler's own failure (500).
func (s *Server) mapFlightErr(err error) *serveError {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, batch.ErrClosed), errors.Is(err, batch.ErrQueueFull):
		s.mRejectedDrain.Inc()
		return &serveError{status: http.StatusServiceUnavailable, code: "draining", cause: err}
	case errors.Is(err, errVerifyFailed):
		return &serveError{status: http.StatusInternalServerError, code: "verify_failed", cause: err}
	default:
		return &serveError{status: http.StatusInternalServerError, code: "solve_failed", cause: err}
	}
}

// errVerifyFailed marks solves rejected by the conformance oracle.
var errVerifyFailed = errors.New("serve: schedule failed verification")

// collect is the single consumer of the engine's ordered results: it
// verifies, renders and caches each solve, then wakes its flight.
func (s *Server) collect() {
	defer close(s.collectorDone)
	for r := range s.stream.Results() {
		s.submitMu.Lock()
		f := s.pending[r.Index]
		delete(s.pending, r.Index)
		s.submitMu.Unlock()
		if f == nil {
			continue
		}
		s.finish(f, &r)
	}
}

// finish completes one flight from its engine result. The cache
// insert and the flight removal happen under one lock acquisition, so
// a concurrent identical request either joins the flight or hits the
// cache — never both misses.
func (s *Server) finish(f *flight, r *batch.Result) {
	switch {
	case r.Err != nil:
		s.mSolveErrors.Inc()
		f.err = r.Err
	default:
		rep := verify.Check(r.Schedule)
		if structural := rep.Structural(); len(structural) > 0 {
			s.mVerifyFailures.Inc()
			f.err = fmt.Errorf("%w: %d structural findings (first: %s)",
				errVerifyFailed, len(structural), structural[0].String())
		} else if entry, err := renderEntry(f.digest, r, rep); err != nil {
			s.mSolveErrors.Inc()
			f.err = err
		} else {
			f.entry = entry
			s.mSolves.Inc()
		}
	}
	s.mu.Lock()
	if f.entry != nil {
		s.cache.put(f.entry)
	}
	delete(s.flights, f.digest)
	s.mu.Unlock()
	close(f.done)
}

// renderBufs recycles the buffer a response is rendered into before
// it is copied out at its exact size.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderEntry builds the immutable cached response for one verified
// solve: the Response with an empty Cache, written in one pass exactly
// as a json.Encoder with two-space indent encodes it (the schedule
// nested at depth 1 in the sched.WriteJSON format), and split after
// the cache value's opening quote into head and tail (one exact-size
// allocation).
func renderEntry(digest string, r *batch.Result, rep *verify.Report) (*cacheEntry, error) {
	s := r.Schedule
	b := s.Breakdown()
	sw, lk := s.CommEnergySplit()
	buf := renderBufs.Get().(*[]byte)
	w := jsonx.Writer{Indent: true, Buf: (*buf)[:0]}
	w.BeginObject()
	w.Key("digest")
	w.String(digest)
	w.Key("cache")
	w.String("")
	at := len(w.Buf) - 1
	w.Key("algorithm")
	w.String(s.Algorithm)
	w.Key("schedule")
	s.AppendJSON(&w)
	w.Key("energy")
	w.BeginObject()
	w.Key("total_nj")
	w.Float(b.Total)
	w.Key("compute_nj")
	w.Float(b.Computation)
	w.Key("comm_nj")
	w.Float(b.Communication)
	w.Key("switch_nj")
	w.Float(sw)
	w.Key("link_nj")
	w.Float(lk)
	w.EndObject()
	w.Key("makespan")
	w.Int(b.Makespan)
	w.Key("deadline_misses")
	w.Int(int64(b.Misses))
	w.Key("verify_findings")
	w.Int(int64(len(rep.Findings)))
	w.Key("solve_us")
	w.Int(r.Latency.Microseconds())
	w.EndObject()
	body := append(make([]byte, 0, len(w.Buf)+1), w.Buf...)
	body = append(body, '\n')
	if *buf = w.Buf; cap(w.Buf) <= maxPooledBody {
		renderBufs.Put(buf)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("serve: render response: %w", err)
	}
	return &cacheEntry{
		digest: digest,
		head:   body[:at:at],
		tail:   body[at:],
		size:   int64(len(body)) + entryOverhead,
	}, nil
}

// write sends the entry as a 200 whose "cache" value is src: head, src
// and tail, byte for byte what encoding the Response with Cache = src
// would produce.
func (e *cacheEntry) write(w http.ResponseWriter, src string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.head)+len(src)+len(e.tail)))
	h.Set("X-Nocsched-Digest", e.digest)
	h.Set("X-Nocsched-Cache", src)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(e.head)
	_, _ = io.WriteString(w, src)
	_, _ = w.Write(e.tail)
}

// bodyBufs recycles request-body buffers: a body is dead once its
// request is decoded or answered from the memo.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBufs keeps, so one huge request
// does not pin its buffer in the pool.
const maxPooledBody = 1 << 20

// readBody reads the whole request body, under the MaxBodyBytes bound,
// into buf. It reserves what Content-Length claims up to maxPooledBody,
// so a common body is read without regrowing the buffer; a client may
// claim more than it sends, so a longer body grows the buffer only as
// its bytes arrive.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	if n := r.ContentLength; n > 0 && n <= s.opts.MaxBodyBytes {
		buf.Grow(int(min(n, maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	return err
}

// memoHit answers a body seen before from the cache: the memo holds
// a record of exactly these bytes, and the cache still holds its
// digest's entry. It counts a cache hit only on success; a miss is
// left to schedule, so every request counts once.
func (s *Server) memoHit(key uint64, body []byte) *cacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	digest := s.memo.get(key, body)
	if digest == "" {
		return nil
	}
	return s.cache.find(digest)
}

// handleSchedule is POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST only")
		return
	}
	s.mRequests.Inc()
	s.mInflight.Add(1)
	started := time.Now()
	defer func() {
		s.mInflight.Add(-1)
		s.mLatency.Observe(time.Since(started).Microseconds())
	}()

	if s.draining.Load() {
		s.mRejectedDrain.Inc()
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; submit elsewhere")
		return
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	if err := s.readBody(w, r, buf); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	key := s.memo.key(buf.Bytes())
	if entry := s.memoHit(key, buf.Bytes()); entry != nil {
		s.mMemoHits.Inc()
		entry.write(w, CacheHit)
		return
	}
	// Bytes after the first JSON value are ignored, as they always
	// have been.
	var req Request
	if err := decodeRequest(buf.Bytes(), &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	wl, err := s.resolve(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.mu.Lock()
	s.memo.put(key, buf.Bytes(), wl.digest)
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), wl.timeout)
	defer cancel()
	entry, src, serr := s.schedule(ctx, wl)
	if serr != nil {
		if serr.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, serr.status, serr.code, serr.cause.Error())
		return
	}
	entry.write(w, src)
}

// writeError sends an ErrorResponse as a json.Encoder with two-space
// indent encodes it.
func writeError(w http.ResponseWriter, status int, code, detail string) {
	jw := jsonx.Writer{Indent: true}
	jw.BeginObject()
	jw.Key("error")
	jw.String(code)
	if detail != "" {
		jw.Key("detail")
		jw.String(detail)
	}
	jw.EndObject()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(append(jw.Buf, '\n'))
}
