// Package batch is the throughput-oriented scheduling engine: it
// accepts a stream of independent scheduling instances (graph +
// platform + algorithm + options), fans them out over a fixed worker
// pool with bounded admission queueing and context cancellation, and
// delivers results in deterministic submission order.
//
// Schedules are bit-identical (sched.Diff) at any worker count, and
// identical to what the serial drivers produce with fresh builders. Two
// mechanisms carry the throughput:
//
//   - instance-level parallelism: each worker schedules whole instances
//     end to end, so N workers keep N cores busy without any
//     cross-instance synchronization beyond the queue;
//   - builder reuse: each worker owns one sched.Builder, which is
//     Reset between instances, so the PE/link tables, route-table
//     pointers and probe scratch are allocated once per worker and
//     platform, not once per instance. Routes themselves live once, in
//     the shared read-only ACG.
//
// Each instance is solved on its worker's goroutine with one prober:
// the parallelism is across instances, never inside one.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// Algorithm names accepted by Instance.Algorithm.
const (
	AlgoEAS = "eas"
	AlgoEDF = "edf"
	AlgoDLS = "dls"
)

// Instance is one independent scheduling problem submitted to the
// engine. Graph and ACG are read-only while the engine runs; distinct
// instances may share both (the common sweep shape: one platform, many
// graphs).
type Instance struct {
	// Name labels the instance in results; the engine does not
	// interpret it.
	Name string
	// Graph is the communication task graph to schedule.
	Graph *ctg.Graph
	// ACG is the architecture characterization graph of the target
	// platform.
	ACG *energy.ACG
	// Algorithm selects the scheduler: AlgoEAS (the default when
	// empty), AlgoEDF, or AlgoDLS.
	Algorithm string
	// EAS forwards scheduler options to EAS runs. Telemetry is
	// overridden by the engine's collector when one is set.
	EAS eas.Options
}

// Result is the outcome of one instance, delivered in submission
// order.
type Result struct {
	// Index is the submission index (0-based); results arrive with
	// strictly ascending indices.
	Index int
	// Name and Algorithm echo the instance.
	Name      string
	Algorithm string
	// Schedule is nil exactly when Err is non-nil.
	Schedule *sched.Schedule
	// EAS carries the full EAS result (budget, repair stats, probe
	// totals) for EAS instances; nil for other algorithms.
	EAS *eas.Result
	// Err is the scheduler's error, or the context's error for
	// instances drained after cancellation.
	Err error
	// Latency is the wall-clock scheduling time of this instance on
	// its worker (queueing time excluded).
	Latency time.Duration
	// Worker identifies the worker that ran the instance — useful in
	// traces, never load-bearing (any assignment yields identical
	// schedules).
	Worker int
}

// Options configures an Engine.
type Options struct {
	// Workers is the instance-level parallelism; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; Submit blocks (or fails
	// with the context's error) once this many instances are waiting.
	// <= 0 selects 2*Workers.
	QueueDepth int
	// Telemetry publishes the engine's metrics (queue depth gauge,
	// per-instance latency histogram, instance/error counters) and is
	// forwarded to every scheduler run. Nil disables collection.
	Telemetry *telemetry.Collector
}

// Batch telemetry metric names (see the README metric catalog).
const (
	// MetricQueueDepth gauges the number of admitted instances not yet
	// picked up by a worker (instances).
	MetricQueueDepth = "batch_queue_depth"
	// MetricInstances counts completed instances, errors included
	// (count) — with a timestamped scrape this is the instances/sec
	// throughput series.
	MetricInstances = "batch_instances_total"
	// MetricErrors counts instances whose scheduler returned an error
	// (count).
	MetricErrors = "batch_errors_total"
	// MetricLatency is the per-instance scheduling latency histogram
	// (microseconds, queueing excluded).
	MetricLatency = "batch_instance_latency_us"
)

// latencyBounds is the fixed bucket layout of MetricLatency (µs).
var latencyBounds = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000}

// Engine schedules batches of instances. One Engine may run any number
// of streams (sequentially or concurrently).
type Engine struct {
	opts Options

	mDepth     *telemetry.Gauge
	mInstances *telemetry.Counter
	mErrors    *telemetry.Counter
	mLatency   *telemetry.Histogram
}

// New returns an Engine with the options' defaults resolved.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	e := &Engine{opts: opts}
	if r := opts.Telemetry.R(); r != nil {
		e.mDepth = r.Gauge(MetricQueueDepth)
		e.mInstances = r.Counter(MetricInstances)
		e.mErrors = r.Counter(MetricErrors)
		e.mLatency = r.Histogram(MetricLatency, latencyBounds)
	}
	return e
}

// Plan does nothing. The ACG already holds every route the workers
// read, so there is no per-platform state to prepare; the method stays
// only because the nocbench harness still calls it.
func (e *Engine) Plan(*energy.ACG) {}

// job tags an instance with its submission index.
type job struct {
	idx  int
	inst Instance
}

// Stream is one batch run: instances go in through Submit, results
// come out of Results in submission order. A Stream has a single
// producer (Submit/Close are not safe for concurrent use); results may
// be consumed from any one goroutine. The consumer must drain Results
// until it closes — abandoning the channel would eventually block the
// workers.
type Stream struct {
	e         *Engine
	ctx       context.Context
	in        chan job
	out       chan Result
	submitted int
	closed    bool
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batch: stream closed")

// ErrQueueFull is returned by TrySubmit when the admission queue
// cannot take another instance without blocking. It is distinct from
// the context errors Submit and TrySubmit return after cancellation,
// so a caller applying backpressure (e.g. an HTTP daemon) can tell
// "retry later" (queue full → 429) from "stop submitting" (canceled →
// 503) without string matching.
var ErrQueueFull = errors.New("batch: admission queue full")

// Stream starts the engine's workers and returns a stream to feed.
// Cancelling the context fails further Submits and makes the workers
// drain remaining queued instances as errored results (so the
// result-per-submission accounting survives cancellation).
func (e *Engine) Stream(ctx context.Context) *Stream {
	s := &Stream{
		e:   e,
		ctx: ctx,
		in:  make(chan job, e.opts.QueueDepth),
		out: make(chan Result, e.opts.QueueDepth),
	}
	done := make(chan Result, e.opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(ctx, id, s.in, done)
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	go reorder(done, s.out)
	return s
}

// Submit admits one instance, blocking while the queue is full. It
// fails with the context's error once the stream's context is
// cancelled, and with ErrClosed after Close.
func (s *Stream) Submit(inst Instance) error {
	if s.closed {
		return ErrClosed
	}
	j := job{idx: s.submitted, inst: inst}
	select {
	case <-s.ctx.Done():
		return s.ctx.Err()
	default:
	}
	select {
	case s.in <- j:
		s.submitted++
		s.e.mDepth.Add(1)
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// TrySubmit admits one instance without blocking: where Submit waits
// for a queue slot, TrySubmit fails fast with ErrQueueFull when the
// admission queue is at capacity. Like Submit it returns the context's
// error once the stream's context is cancelled and ErrClosed after
// Close, so the three rejection causes stay typed and distinguishable.
func (s *Stream) TrySubmit(inst Instance) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	j := job{idx: s.submitted, inst: inst}
	select {
	case s.in <- j:
		s.submitted++
		s.e.mDepth.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Close ends admission. Results for everything already submitted keep
// flowing; Results closes once the last of them is delivered.
func (s *Stream) Close() {
	if !s.closed {
		s.closed = true
		close(s.in)
	}
}

// Results returns the ordered result channel. It closes after Close
// once every submitted instance has been delivered.
func (s *Stream) Results() <-chan Result { return s.out }

// Submitted returns how many instances have been admitted so far.
func (s *Stream) Submitted() int { return s.submitted }

// reorder restores submission order: workers finish out of order, the
// reorder buffer holds early results until their predecessors arrive.
// Bounded by the number of in-flight instances (queue + workers).
func reorder(done <-chan Result, out chan<- Result) {
	pending := make(map[int]Result)
	next := 0
	for r := range done {
		pending[r.Index] = r
		for {
			nr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			out <- nr
		}
	}
	close(out)
}

// worker owns one Builder and drains the admission queue through it.
func (e *Engine) worker(ctx context.Context, id int, in <-chan job, done chan<- Result) {
	b := new(sched.Builder)
	for j := range in {
		e.mDepth.Add(-1)
		r := Result{Index: j.idx, Name: j.inst.Name, Algorithm: j.inst.Algorithm, Worker: id}
		if r.Algorithm == "" {
			r.Algorithm = AlgoEAS
		}
		if err := ctx.Err(); err != nil {
			r.Err = err
		} else {
			started := time.Now()
			r.Schedule, r.EAS, r.Err = e.schedule(b, &j.inst)
			r.Latency = time.Since(started)
			e.mLatency.Observe(r.Latency.Microseconds())
			if r.Err != nil {
				e.mErrors.Inc()
			}
		}
		e.mInstances.Inc()
		done <- r
		// Let the reorder goroutine and the consumer take the result
		// now. The send only queues them behind this worker, which
		// would otherwise run on until its time slice ends: with
		// solves shorter than a slice, finished results, each holding
		// its graph and schedule, pile up in the engine.
		runtime.Gosched()
	}
}

// schedule dispatches one instance through the worker's builder.
func (e *Engine) schedule(b *sched.Builder, inst *Instance) (*sched.Schedule, *eas.Result, error) {
	switch inst.Algorithm {
	case "", AlgoEAS:
		o := inst.EAS
		if e.opts.Telemetry != nil {
			o.Telemetry = e.opts.Telemetry
		}
		r, err := eas.ScheduleWith(b, inst.Graph, inst.ACG, o)
		if err != nil {
			return nil, nil, err
		}
		return r.Schedule, r, nil
	case AlgoEDF:
		s, err := edf.ScheduleWith(b, inst.Graph, inst.ACG, edf.Options{Telemetry: e.opts.Telemetry})
		return s, nil, err
	case AlgoDLS:
		s, err := dls.ScheduleWith(b, inst.Graph, inst.ACG)
		return s, nil, err
	default:
		return nil, nil, fmt.Errorf("batch: unknown algorithm %q", inst.Algorithm)
	}
}

// Run is the convenience wrapper for a known instance list: it streams
// every instance through the engine and collects the ordered results.
// On cancellation it returns the context's error along with whatever
// results were produced (instances drained after the cancel carry the
// context's error in Result.Err).
func (e *Engine) Run(ctx context.Context, instances []Instance) ([]Result, error) {
	st := e.Stream(ctx)
	go func() {
		defer st.Close()
		for _, inst := range instances {
			if st.Submit(inst) != nil {
				return
			}
		}
	}()
	results := make([]Result, 0, len(instances))
	for r := range st.Results() {
		results = append(results, r)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}
