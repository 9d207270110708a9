package sched

import (
	"nocsched/internal/ctg"
	"nocsched/internal/energy"
)

// Workspace bundles one reusable Builder with its ProbePool so that a
// driver scheduling many instances — a batch worker, a sweep harness, a
// Monte-Carlo campaign — pays the builder's table, route-cache and
// prober allocations once and then amortizes them across every
// subsequent instance on the same platform via Builder.Reset.
//
// A Workspace is single-goroutine state: one scheduling run at a time.
// Concurrency lives one level up (each batch worker owns one
// workspace) or one level down (the pool's probers).
//
// Reuse never changes results: a schedule produced through a prepared
// workspace is bit-identical (sched.Diff) to one produced by a fresh
// builder, which the batch determinism tests assert across worker
// counts and against fresh-builder references.
type Workspace struct {
	builder *Builder
	pool    *ProbePool
	workers int
	plan    *RoutePlan
}

// NewWorkspace returns an empty workspace whose pools will use the
// given worker count (<= 0 means GOMAXPROCS). The second argument is
// ignored and deprecated: it once selected a second probe path and
// remains only so existing callers compile. Pass false.
func NewWorkspace(workers int, _ bool) *Workspace {
	return &Workspace{workers: workers}
}

// SetRoutePlan supplies a shared, immutable route plan that Prepare
// attaches to every builder it constructs for the plan's ACG. Batch
// workers receive the plan from the engine's per-ACG cache, so all
// workers on one platform share a single precomputed route table
// instead of lazily filling one cache per builder.
func (w *Workspace) SetRoutePlan(p *RoutePlan) { w.plan = p }

// Builder returns the workspace's current builder (nil before the
// first Prepare).
func (w *Workspace) Builder() *Builder { return w.builder }

// Prepare readies the workspace for one scheduling run of graph g on
// acg: on the same platform as the previous run it resets the existing
// builder in place (zero steady-state allocation beyond the fresh
// Schedule shell) and zeroes the pool's probe counters; on a platform
// change it builds a fresh builder and pool, attaching the workspace's
// route plan when one matches. The returned builder has no metrics
// attached and uses the exact contention model; callers set both after
// Prepare, per run.
func (w *Workspace) Prepare(g *ctg.Graph, acg *energy.ACG, algorithm string) (*Builder, *ProbePool, error) {
	if w.builder != nil && w.builder.ACG() == acg {
		w.builder.SetAlgorithm(algorithm)
		w.builder.Reset(g, acg)
		w.pool.ResetProbes()
		return w.builder, w.pool, nil
	}
	b := NewBuilder(g, acg, algorithm)
	if w.plan != nil && w.plan.ACG() == acg {
		if err := b.SetRoutePlan(w.plan); err != nil {
			return nil, nil, err
		}
	}
	w.builder = b
	w.pool = NewProbePool(b, w.workers)
	return w.builder, w.pool, nil
}
