package sched

import (
	"nocsched/internal/ctg"
	"nocsched/internal/energy"
)

// Workspace bundles one reusable Builder with its ProbePool so that a
// driver scheduling many instances — a batch worker, a sweep harness, a
// Monte-Carlo campaign — pays the builder's table, route-table and
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
}

// NewWorkspace returns an empty workspace whose pools will use the
// given worker count (<= 0 means GOMAXPROCS). The second argument is
// ignored and deprecated: it once selected a second probe path and
// remains only so existing callers compile. Pass false.
func NewWorkspace(workers int, _ bool) *Workspace {
	return &Workspace{workers: workers}
}

// Builder returns the workspace's current builder (nil before the
// first Prepare).
func (w *Workspace) Builder() *Builder { return w.builder }

// Prepare readies the workspace for one scheduling run of graph g on
// acg: on the same platform as the previous run it resets the existing
// builder in place (zero steady-state allocation beyond the fresh
// Schedule shell) and zeroes the pool's probe counters; on a platform
// change it builds a fresh builder and pool. The returned builder has
// no metrics attached and uses the exact contention model; callers set
// both after Prepare, per run.
func (w *Workspace) Prepare(g *ctg.Graph, acg *energy.ACG, algorithm string) (*Builder, *ProbePool) {
	if w.builder != nil && w.builder.ACG() == acg {
		w.builder.SetAlgorithm(algorithm)
		w.builder.Reset(g, acg)
		w.pool.ResetProbes()
		return w.builder, w.pool
	}
	w.builder = NewBuilder(g, acg, algorithm)
	w.pool = NewProbePool(w.builder, w.workers)
	return w.builder, w.pool
}
