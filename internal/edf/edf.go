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

// Options configure the EDF baseline's instrumentation; the zero value
// is the default.
type Options struct {
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

// ScheduleOpts runs the EDF baseline with explicit options.
func ScheduleOpts(g *ctg.Graph, acg *energy.ACG, opts Options) (*sched.Schedule, error) {
	return ScheduleWith(new(sched.Builder), g, acg, opts)
}

// ScheduleWith runs the EDF baseline on the reusable builder b (see
// eas.ScheduleWith): batch drivers reuse one builder across many
// instances, amortizing its table and route-table allocations.
// Schedules are bit-identical to ScheduleOpts'.
func ScheduleWith(b *sched.Builder, g *ctg.Graph, acg *energy.ACG, opts Options) (*sched.Schedule, error) {
	started := time.Now()
	order, err := g.ValidatedOrder()
	if err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("edf: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	endDrive := opts.Telemetry.T().Span("edf:drive", "edf phases")
	s, err := b.ListSchedule(g, acg, "edf", sched.NewMetrics(opts.Telemetry.R(), acg.NumPEs()), true, Pick(g, order))
	endDrive()
	if err != nil {
		return nil, err
	}
	s.Elapsed = time.Since(started)
	sched.PublishSchedule(opts.Telemetry.R(), s)
	return s, nil
}

// Pick returns the EDF decision rule for sched.Builder.ListSchedule
// on graph g, given its topological order: the ready task with the
// earliest effective deadline (ties to the lower task ID), on the PE
// that finishes it earliest (ties to the lower PE index). The EAS
// scheduler's deadline-first fallback runs the same rule.
func Pick(g *ctg.Graph, order []ctg.TaskID) sched.Pick {
	dEff := effectiveDeadlines(g, order)
	return func(_ *sched.Builder, pr *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
		pick := rtl[0]
		for _, t := range rtl[1:] {
			if dEff[t] < dEff[pick] {
				pick = t
			}
		}
		best, err := pr.EarliestFinishPE(pick)
		if err != nil {
			return 0, 0, err
		}
		return pick, best.PE, nil
	}
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
	return effectiveDeadlines(g, order), nil
}

// effectiveDeadlines is EffectiveDeadlines given g's topological order.
func effectiveDeadlines(g *ctg.Graph, order []ctg.TaskID) []int64 {
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
	return dEff
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
