package sched

import (
	"fmt"

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
// Every list scheduler — EAS Step 2 and its deadline-first fallback,
// EDF, DLS and the mapping baseline — runs through ListSchedule, which
// owns the loop they share and leaves each only its decision rule. A
// rule that carries rows from one round to the next (Prober.Carry) keeps
// its records on the workspace's prober.
//
// Reuse never changes results: a schedule produced through a reused
// workspace is bit-identical (sched.Diff) to one produced by a fresh
// builder, which the batch determinism tests assert across worker
// counts and against fresh-builder references.
type Workspace struct {
	builder *Builder
	prober  *Prober
	rtl     []ctg.TaskID
}

// NewWorkspace returns an empty workspace. Both arguments are ignored
// and remain only so existing callers compile; pass 1 and false.
func NewWorkspace(_ int, _ bool) *Workspace {
	return &Workspace{}
}

// Builder returns the workspace's current builder (nil before the
// first run).
func (w *Workspace) Builder() *Builder { return w.builder }

// A Pick is one list scheduler's decision rule: given the round's Ready
// Task List rtl (task-ID order, never empty), it names the task to
// commit and its PE. It may probe through pr and read b's committed
// placements, but must not commit.
type Pick func(b *Builder, pr *Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error)

// ListSchedule runs one list-scheduling solve of graph g on acg: it
// readies the workspace's builder, attaches metrics m (nil: none) and
// the contention model, then every round lists the ready tasks, records
// the ready-list depth, and commits the (task, PE) pick returns, until
// every task is committed. The schedule carries the run's probe, reuse,
// row-scan and carried-row counts.
func (w *Workspace) ListSchedule(g *ctg.Graph, acg *energy.ACG, algorithm string, m *Metrics, contention bool, pick Pick) (*Schedule, error) {
	b, pr := w.prepare(g, acg, algorithm)
	b.SetMetrics(m)
	b.SetContentionAware(contention)
	for b.Committed() < g.NumTasks() {
		w.rtl = b.AppendReady(w.rtl[:0])
		if len(w.rtl) == 0 {
			return nil, fmt.Errorf("%s: no ready tasks with %d of %d committed",
				algorithm, b.Committed(), g.NumTasks())
		}
		m.ObserveReadyDepth(len(w.rtl))
		t, k, err := pick(b, pr, w.rtl)
		if err != nil {
			return nil, err
		}
		if _, err := b.Commit(t, k); err != nil {
			return nil, err
		}
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes, s.ProbeReuses = pr.Probes(), pr.Reuses()
	s.RowScans, s.RowsCarried = pr.rows, pr.carried
	return s, nil
}

// prepare readies the workspace for one scheduling run of graph g on
// acg: after the first run it resets the existing builder in place
// (zero steady-state allocation on one platform beyond the fresh
// Schedule shell), grows the prober's overlay to the new platform's
// link count and zeroes the prober's probe counters. The returned
// builder has no metrics attached and uses the exact contention model.
func (w *Workspace) prepare(g *ctg.Graph, acg *energy.ACG, algorithm string) (*Builder, *Prober) {
	if w.builder == nil {
		w.builder = NewBuilder(g, acg, algorithm)
		w.prober = w.builder.NewProber()
		return w.builder, w.prober
	}
	w.builder.SetAlgorithm(algorithm)
	w.builder.Reset(g, acg)
	w.prober.overlay.Grow(len(w.builder.linkTables))
	w.prober.probes, w.prober.reuses = 0, 0
	w.prober.rows, w.prober.carried = 0, 0
	return w.builder, w.prober
}
