package eas

import (
	"fmt"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
)

// RescheduleLayout re-times an existing task-to-PE assignment and per-PE
// execution order against a (possibly different) graph/ACG pair, then
// runs Step-3 search-and-repair if deadlines are missed. It is the
// fault-recovery entry point: the layout of a fault-free schedule —
// with stranded tasks reassigned by the caller — is rebuilt on the
// degraded platform, and the same LTS/GTM repair moves that fix
// deadline misses in the nominal flow now fix the misses the fault
// introduced.
//
// assign[t] gives the PE of task t; order[pe] lists the tasks of pe in
// execution order. Every task must appear exactly once, on a PE it can
// run on. The assignment/order pair must be consistent with the graph's
// dependencies under the strict per-PE ordering discipline; a
// contradictory layout is an error.
func RescheduleLayout(g *ctg.Graph, acg *energy.ACG, assign []int, order [][]ctg.TaskID, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("eas: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	if len(assign) != g.NumTasks() {
		return nil, fmt.Errorf("eas: assignment covers %d of %d tasks", len(assign), g.NumTasks())
	}
	if len(order) != acg.NumPEs() {
		return nil, fmt.Errorf("eas: order covers %d of %d PEs", len(order), acg.NumPEs())
	}
	seen := make([]bool, g.NumTasks())
	for pe := range order {
		for _, t := range order[pe] {
			if t < 0 || int(t) >= g.NumTasks() {
				return nil, fmt.Errorf("eas: order names unknown task %d", t)
			}
			if seen[t] {
				return nil, fmt.Errorf("eas: task %d listed twice in the PE order", t)
			}
			seen[t] = true
			if assign[t] != pe {
				return nil, fmt.Errorf("eas: task %d ordered on PE %d but assigned to PE %d", t, pe, assign[t])
			}
			if !g.Task(t).RunnableOn(pe) {
				return nil, fmt.Errorf("eas: task %d not runnable on assigned PE %d", t, pe)
			}
		}
	}
	for t, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("eas: task %d missing from the PE order", t)
		}
	}

	l := &layout{assign: append([]int(nil), assign...), order: make([][]ctg.TaskID, len(order))}
	for pe := range order {
		l.order[pe] = append([]ctg.TaskID(nil), order[pe]...)
	}
	b := sched.NewBuilder(g, acg, "eas-remap")
	s, err := rebuild(b, l, opts.NaiveContention, nil)
	if err != nil {
		return nil, fmt.Errorf("eas: layout inconsistent with task dependencies: %w", err)
	}
	res := &Result{Schedule: s}
	if !opts.DisableRepair && !s.Feasible() {
		repaired, stats, err := repair(b, s, opts.RepairBudget, opts.NaiveContention)
		if err != nil {
			return nil, err
		}
		res.Schedule = repaired
		res.RepairStats = stats
	}
	return res, nil
}

// MetricBetter reports whether schedule a beats schedule b under the
// repair objective (fewer deadline misses, then less total lateness),
// breaking ties toward lower total energy. Exported for drivers that
// must pick between independently produced recovery candidates.
func MetricBetter(a, b *sched.Schedule) bool {
	am, bm := metricOf(a), metricOf(b)
	if am != bm {
		return am.better(bm)
	}
	return a.TotalEnergy() < b.TotalEnergy()
}
