package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nocsched/internal/ctg"
)

// ProbePool evaluates batches of F(i,k) probes, optionally across a
// fixed set of worker goroutines. Each worker owns one read-only Prober,
// so the shared Builder tables are only read during a batch; commits
// happen between batches on the caller's goroutine.
//
// Determinism: Run assigns work items by index into caller-owned result
// storage, so reducing results in ascending index order on the caller's
// goroutine reproduces the sequential scheduler's tie-breaks exactly —
// schedules are bit-identical at any worker count. The differential
// tests in internal/eas assert this over TGFF and MSB workloads.
type ProbePool struct {
	b       *Builder
	probers []*Prober

	// seqFloor is the auto worker policy: batches carrying fewer than
	// this many probes run on the caller's goroutine even when the pool
	// has idle workers, because goroutine fan-out costs more than it
	// saves at that size. 0 disables the policy.
	// Purely a performance knob — the sequential and parallel paths are
	// bit-identical by construction.
	seqFloor int

	// Scratch for EarliestFinishPE, sized NumPEs on first use. efEval
	// is built once and reads efTask, so the per-call closure does not
	// escape to the heap (the zero-alloc guard test covers this).
	results []ProbeResult
	errs    []error
	efTask  ctg.TaskID
	efEval  func(pr *Prober, k int)
}

// DefaultSequentialFloor is the probe-count threshold of the auto
// worker policy: Run batches below it stay on the caller's goroutine.
// At ~150ns per warm probe, a batch this small finishes in well under
// the cost of waking the worker set.
const DefaultSequentialFloor = 128

// NewProbePool returns a pool with the given number of workers; workers
// <= 0 selects runtime.GOMAXPROCS(0). The builder's route cache is
// pre-warmed so concurrent probers never race on a lazy fill (a no-op
// when the builder carries a shared RoutePlan). The pool starts with
// the DefaultSequentialFloor auto policy.
func NewProbePool(b *Builder, workers int) *ProbePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b.warmRoutes()
	p := &ProbePool{b: b, probers: make([]*Prober, workers), seqFloor: DefaultSequentialFloor}
	for i := range p.probers {
		p.probers[i] = b.NewProber()
	}
	return p
}

// Probes returns the total F(i,k) probes evaluated by all workers.
func (p *ProbePool) Probes() int64 {
	var n int64
	for _, pr := range p.probers {
		n += pr.Probes()
	}
	return n
}

// ProbeReuses returns how many of Probes were served from the probe
// cache (Prober.ProbeCached).
func (p *ProbePool) ProbeReuses() int64 {
	var n int64
	for _, pr := range p.probers {
		n += pr.Reuses()
	}
	return n
}

// ResetProbes zeroes every worker's probe and reuse counters. Reuse
// drivers (Workspace.Prepare) call it between instances so
// Schedule.Probes keeps counting only the run that produced the
// schedule.
func (p *ProbePool) ResetProbes() {
	for _, pr := range p.probers {
		pr.probes, pr.reuses = 0, 0
	}
}

// Run evaluates eval(prober, i) for every i in [0, n), fanning out
// across the pool's workers. eval must write its result into storage
// indexed by i (never shared accumulators) so that the caller can
// reduce deterministically afterwards. eval must not touch the Builder
// except through the prober. Each item is assumed to cost one probe for
// the auto worker policy; callers whose items evaluate several probes
// apiece should use RunWeighted.
func (p *ProbePool) Run(n int, eval func(pr *Prober, i int)) {
	p.RunWeighted(n, 1, eval)
}

// RunWeighted is Run for items that each evaluate probesPerItem F(i,k)
// probes: the auto worker policy compares n*probesPerItem — the batch's
// total probe count — against the sequential floor, so a 10-task ready
// list probing 16 PEs per task fans out while a 16-PE single-task scan
// stays sequential.
func (p *ProbePool) RunWeighted(n, probesPerItem int, eval func(pr *Prober, i int)) {
	if len(p.probers) == 1 || n < 2 || n*probesPerItem < p.seqFloor {
		for i := 0; i < n; i++ {
			eval(p.probers[0], i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(pr *Prober) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			eval(pr, i)
		}
	}
	for w := 1; w < len(p.probers); w++ {
		wg.Add(1)
		go func(pr *Prober) {
			defer wg.Done()
			work(pr)
		}(p.probers[w])
	}
	work(p.probers[0])
	wg.Wait()
}

// EarliestFinishPE probes task t on every PE and returns the placement
// with the strictly earliest finish, ties broken toward the lowest PE
// index — the EDF/DLS inner loop. PEs that cannot run the task are
// skipped; if none can, an error is returned. With multiple workers the
// per-PE probes run concurrently; the reduction is sequential in PE
// order, so the answer matches the sequential scan bit for bit.
func (p *ProbePool) EarliestFinishPE(t ctg.TaskID) (ProbeResult, error) {
	npe := p.b.acg.NumPEs()
	if len(p.results) < npe {
		p.results = make([]ProbeResult, npe)
		p.errs = make([]error, npe)
	}
	if p.efEval == nil {
		p.efEval = func(pr *Prober, k int) {
			task := p.efTask
			if !p.b.g.Task(task).RunnableOn(k) {
				p.results[k] = ProbeResult{PE: -1}
				return
			}
			p.results[k], p.errs[k] = pr.Probe(task, k)
		}
	}
	p.efTask = t
	p.Run(npe, p.efEval)
	results, errs := p.results, p.errs
	best := ProbeResult{PE: -1}
	for k := 0; k < npe; k++ {
		if errs[k] != nil {
			return ProbeResult{}, errs[k]
		}
		if results[k].PE < 0 {
			continue
		}
		if best.PE < 0 || results[k].Finish < best.Finish {
			best = results[k]
		}
	}
	if best.PE < 0 {
		return ProbeResult{}, fmt.Errorf("sched: task %d runnable on no PE", t)
	}
	return best, nil
}
