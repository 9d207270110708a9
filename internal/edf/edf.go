// Package edf implements the baseline the paper compares against: "a
// standard Earliest Deadline First (EDF) scheduler". It is a
// communication-aware multiprocessor list scheduler — transactions are
// placed on links with the same exact contention model as EAS, so its
// schedules are physically valid — but its decisions are classic EDF:
// the most urgent ready task goes first, onto the PE that finishes it
// earliest, with no regard for energy.
package edf

import (
	"fmt"
	"math"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// Options tune how the EDF baseline evaluates its probes. The zero
// value (one worker per available CPU) is the default; every setting
// produces bit-identical schedules.
type Options struct {
	// Workers caps the probe worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Telemetry collects scheduler metrics and phase spans; nil (the
	// default) disables all collection. Telemetry never influences
	// scheduling decisions.
	Telemetry *telemetry.Collector
}

// Schedule runs the EDF baseline on graph g against architecture acg
// with default options.
func Schedule(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
	return ScheduleOpts(g, acg, Options{})
}

// ScheduleOpts runs the EDF baseline with explicit probe options.
func ScheduleOpts(g *ctg.Graph, acg *energy.ACG, opts Options) (*sched.Schedule, error) {
	return ScheduleWith(sched.NewWorkspace(opts.Workers, false), g, acg, opts)
}

// ScheduleWith runs the EDF baseline through a reusable workspace (see
// eas.ScheduleWith): batch drivers reuse one workspace across many
// instances, amortizing the builder's table and route-table
// allocations. Schedules are bit-identical to ScheduleOpts'. The
// workspace's pool configuration overrides opts.Workers.
func ScheduleWith(ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG, opts Options) (*sched.Schedule, error) {
	started := time.Now()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("edf: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	dEff, err := EffectiveDeadlines(g)
	if err != nil {
		return nil, err
	}
	b, pool := ws.Prepare(g, acg, "edf")
	b.SetMetrics(sched.NewMetrics(opts.Telemetry.R(), acg.NumPEs()))
	endDrive := opts.Telemetry.T().Span("edf:drive", "edf phases")
	err = Drive(b, pool, dEff)
	endDrive()
	if err != nil {
		return nil, err
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes = pool.Probes()
	s.Elapsed = time.Since(started)
	sched.PublishSchedule(opts.Telemetry.R(), s)
	return s, nil
}

// Drive runs the EDF decision loop on a prepared builder until every
// task is committed: pick the ready task with the earliest effective
// deadline (ties to the lower task ID), place it on the PE that
// finishes it earliest (ties to the lower PE index). It is shared with
// the EAS scheduler's deadline-first fallback, which is exactly this
// policy on a different builder.
func Drive(b *sched.Builder, pool *sched.ProbePool, dEff []int64) error {
	g := b.Graph()
	var rtl []ctg.TaskID
	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		if len(rtl) == 0 {
			return fmt.Errorf("edf: no ready tasks with %d of %d committed",
				b.Committed(), g.NumTasks())
		}
		b.Metrics().ObserveReadyDepth(len(rtl))
		// Earliest effective deadline first; ties to the lower ID.
		pick := rtl[0]
		for _, t := range rtl[1:] {
			if dEff[t] < dEff[pick] {
				pick = t
			}
		}
		best, err := pool.EarliestFinishPE(pick)
		if err != nil {
			return err
		}
		if _, err := b.Commit(pick, best.PE); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveDeadlines propagates specified deadlines backwards through
// the graph so that every task inherits the urgency of its most
// constrained descendant: dEff(t) = min(d(t), min over successors s of
// dEff(s) - minExec(s)). minExec is the optimistic (fastest-PE)
// execution time; communication latency is ignored, as a "standard" EDF
// would. Tasks constrained by no deadline keep ctg.NoDeadline.
func EffectiveDeadlines(g *ctg.Graph) ([]int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	dEff := make([]int64, g.NumTasks())
	for i := range dEff {
		dEff[i] = g.Task(ctg.TaskID(i)).Deadline
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		// A min over successors ignores their order and duplicates, so
		// the out-edges serve without Succ's deduplicated copy.
		for _, eid := range g.Out(t) {
			s := g.Edge(eid).Dst
			if dEff[s] == ctg.NoDeadline {
				continue
			}
			bound := dEff[s] - minExec(g.Task(s))
			if bound < dEff[t] {
				dEff[t] = bound
			}
		}
	}
	return dEff, nil
}

func minExec(t *ctg.Task) int64 {
	m := int64(math.MaxInt64)
	for _, r := range t.ExecTime {
		if r >= 0 && r < m {
			m = r
		}
	}
	return m
}
