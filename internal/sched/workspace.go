package sched

import (
	"nocsched/internal/ctg"
	"nocsched/internal/energy"
)

// Workspace bundles one reusable Builder with its Prober so that a
// driver scheduling many instances — a batch worker, a sweep harness, a
// Monte-Carlo campaign — pays the builder's table, route-table and
// prober allocations once and then amortizes them across every
// subsequent instance via Builder.Reset.
//
// A Workspace is single-goroutine state: one scheduling run at a time,
// and a run probes and commits on one goroutine. Concurrency lives one
// level up: each batch worker owns one workspace.
//
// Reuse never changes results: a schedule produced through a prepared
// workspace is bit-identical (sched.Diff) to one produced by a fresh
// builder, which the batch determinism tests assert across worker
// counts and against fresh-builder references.
type Workspace struct {
	builder *Builder
	prober  *Prober
}

// NewWorkspace returns an empty workspace. Both arguments are ignored
// and remain only so existing callers compile; pass 1 and false.
func NewWorkspace(_ int, _ bool) *Workspace {
	return &Workspace{}
}

// Builder returns the workspace's current builder (nil before the
// first Prepare).
func (w *Workspace) Builder() *Builder { return w.builder }

// Prepare readies the workspace for one scheduling run of graph g on
// acg: after the first run it resets the existing builder in place
// (zero steady-state allocation on one platform beyond the fresh
// Schedule shell), grows the prober's overlay to the new platform's
// link count and zeroes the prober's probe counters. The returned
// builder has no metrics attached and uses the exact contention model;
// callers set both after Prepare, per run.
func (w *Workspace) Prepare(g *ctg.Graph, acg *energy.ACG, algorithm string) (*Builder, *Prober) {
	if w.builder == nil {
		w.builder = NewBuilder(g, acg, algorithm)
		w.prober = w.builder.NewProber()
		return w.builder, w.prober
	}
	w.builder.SetAlgorithm(algorithm)
	w.builder.Reset(g, acg)
	w.prober.overlay.Grow(len(w.builder.linkTables))
	w.prober.probes, w.prober.reuses = 0, 0
	return w.builder, w.prober
}
