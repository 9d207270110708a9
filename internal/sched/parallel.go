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

	// seqFloor is the auto worker policy: batches of fewer than this
	// many items run on the caller's goroutine even when the pool
	// has idle workers, because goroutine fan-out costs more than it
	// saves at that size. 0 disables the policy.
	// Purely a performance knob — the sequential and parallel paths are
	// bit-identical by construction.
	seqFloor int
}

// DefaultSequentialFloor is the item-count threshold of the auto
// worker policy: Run batches below it stay on the caller's goroutine.
// At ~150ns per warm probe, a batch this small finishes in well under
// the cost of waking the worker set.
const DefaultSequentialFloor = 128

// NewProbePool returns a pool with the given number of workers; workers
// <= 0 selects runtime.GOMAXPROCS(0). The pool starts with the
// DefaultSequentialFloor auto policy.
func NewProbePool(b *Builder, workers int) *ProbePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
// except through the prober. The auto worker policy counts each item as
// one probe. That holds for a row scan (Prober.Row): it stops once its
// answer is settled, after about one evaluated probe and a few cached
// ones, so a ready list fans out only from DefaultSequentialFloor rows.
func (p *ProbePool) Run(n int, eval func(pr *Prober, i int)) {
	if len(p.probers) == 1 || n < 2 || n < p.seqFloor {
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

// EarliestFinishPE returns the placement of task t with the strictly
// earliest finish over the PEs that can run it, ties broken toward the
// lowest PE index — the EDF inner loop. If no PE can run t, an error is
// returned.
//
// It scans t's row (Prober.Row) by ascending finish bound drtLB + exec
// and stops once the bound passes the best finish found, so it probes
// only the PEs that could still win; the answer is the full scan's bit
// for bit. The scan runs on the caller's goroutine with plain Probe: a
// row of NumPEs probes is below DefaultSequentialFloor, and EDF commits
// the task right after, so a cached probe would never be reused.
func (p *ProbePool) EarliestFinishPE(t ctg.TaskID) (ProbeResult, error) {
	pr := p.probers[0]
	task := p.b.g.Task(t)
	row := pr.Row(t, rowByFinish, func(k int, drtLB int64, _ float64) float64 {
		return float64(drtLB + task.ExecTime[k])
	})
	best := ProbeResult{PE: -1}
	for _, k32 := range row.Order {
		k := int(k32)
		if best.PE >= 0 {
			bound := row.DRTBound(k) + task.ExecTime[k]
			// The order is by float64(bound), which is monotone, so past
			// a larger float no later PE can finish by best.Finish.
			if float64(bound) > float64(best.Finish) {
				break
			}
			if bound > best.Finish || (bound == best.Finish && k > best.PE) {
				continue
			}
		}
		r, err := pr.Probe(t, k)
		if err != nil {
			return ProbeResult{}, err
		}
		if best.PE < 0 || r.Finish < best.Finish || (r.Finish == best.Finish && k < best.PE) {
			best = r
		}
	}
	if best.PE < 0 {
		return ProbeResult{}, fmt.Errorf("sched: task %d runnable on no PE", t)
	}
	return best, nil
}
