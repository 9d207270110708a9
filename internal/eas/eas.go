package eas

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// Options configures the EAS scheduler. The zero value is the paper's
// configuration (weight VAR_e*VAR_r, exact contention model, repair on).
type Options struct {
	// Weight selects the slack-allocation weight; nil means the
	// paper's WeightVarEVarR.
	Weight WeightFunc
	// DisableRepair turns off Step 3 (search and repair), yielding the
	// paper's "EAS-base" configuration.
	DisableRepair bool
	// NaiveContention replaces the exact Fig. 3 contention model with
	// a fixed-delay communication model (ablation only; resulting
	// schedules may be physically infeasible).
	NaiveContention bool
	// DisableTightenRetry turns off the slack-tightening fallback:
	// when search-and-repair cannot eliminate every deadline miss, the
	// driver normally re-runs Steps 1-3 with uniformly reduced slack
	// shares (ComputeBudget's scale), trading energy for feasibility,
	// and returns the best schedule found. Disable to get the paper's
	// single-pass behavior exactly.
	DisableTightenRetry bool
	// Telemetry collects scheduler metrics (probe counts, ready-list
	// depth, energy breakdown) and phase spans; nil (the default)
	// disables all collection at zero cost. Telemetry never influences
	// scheduling decisions — schedules are bit-identical with it on or
	// off (asserted by the differential tests).
	Telemetry *telemetry.Collector
}

// Result bundles a schedule with the intermediate artifacts the
// experiments report on.
type Result struct {
	Schedule *sched.Schedule
	Budget   *Budget
	// RepairStats is zero-valued when repair was disabled or never ran.
	RepairStats RepairStats
	// RefineStats is non-zero only when the feasibility fallback ran
	// and its energy-refinement pass produced the returned schedule.
	RefineStats RefineStats
	// Work is the solver work of every budgeting pass and the fallback
	// summed (the returned Schedule's own Work counts only the pass
	// that produced it). Only Step 2 reuses probes or settles tests by
	// the table-tail bound; the fallback's EDF probes never are reused.
	sched.Work
}

// Schedule runs the full EAS algorithm (Steps 1-3, or 1-2 when repair is
// disabled) on graph g against the architecture acg.
func Schedule(g *ctg.Graph, acg *energy.ACG, opts Options) (*Result, error) {
	return ScheduleWith(new(sched.Builder), g, acg, opts)
}

// ScheduleWith runs EAS on the reusable builder b: every budgeting
// pass, Step 3 and the feasibility fallback run on b and its prober
// (reset between passes), and a driver scheduling many instances — the
// batch engine's workers — reuses the same builder across calls,
// amortizing all table and route-table allocation. Schedules are
// bit-identical to Schedule's.
func ScheduleWith(b *sched.Builder, g *ctg.Graph, acg *energy.ACG, opts Options) (*Result, error) {
	started := time.Now()
	order, err := g.ValidatedOrder()
	if err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("eas: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	algorithm := "eas"
	if opts.DisableRepair {
		algorithm = "eas-base"
	}
	// Budgeting passes tried in order. The first is the paper's Step 1
	// (execution-only path lengths, full slack); later passes — run
	// only when deadline misses survive search-and-repair — charge
	// expected communication time to the paths and then shrink the
	// slack shares, trading energy for feasibility.
	type pass struct {
		scale  float64
		commBW int64
	}
	bw := acg.Platform().LinkBandwidth
	passes := []pass{{1, 0}, {1, bw}, {0.5, bw}, {0, bw}}
	if opts.DisableRepair || opts.DisableTightenRetry {
		passes = passes[:1]
	}

	var best *Result
	var work sched.Work
	tr := opts.Telemetry.T()
	for passNo, p := range passes {
		// Span ignores the name on a nil tracer: format it only when
		// one is attached.
		var passName string
		if tr.Enabled() {
			passName = fmt.Sprintf("pass %d (scale=%g bw=%d)", passNo, p.scale, p.commBW)
		}
		endPass := tr.Span(passName, "eas")
		endStep := tr.Span("step1:budget", "eas phases")
		budget, err := computeBudget(g, order, opts.Weight, p.scale, p.commBW)
		endStep()
		if err != nil {
			endPass()
			return nil, err
		}
		endStep = tr.Span("step2:level-schedule", "eas phases")
		s, err := levelSchedule(b, g, acg, budget, algorithm, opts)
		endStep()
		if err != nil {
			endPass()
			return nil, err
		}
		work.Add(s.Work)
		cand := &Result{Schedule: s, Budget: budget}
		if !opts.DisableRepair && !s.Feasible() {
			endStep = tr.Span("step3:repair", "eas phases")
			// Step 3 re-times its candidates on Step 2's builder.
			repaired, stats, err := repair(newEvaluator(b, opts.NaiveContention), s, 0)
			endStep()
			if err != nil {
				endPass()
				return nil, err
			}
			cand.Schedule = repaired
			cand.RepairStats = stats
		}
		endPass()
		if best == nil || metricBetter(cand.Schedule, best.Schedule) {
			best = cand
		}
		if best.Schedule.Feasible() {
			break
		}
	}

	// Feasibility fallback: when even the tightened budgets leave
	// misses, schedule deadline-first (the most feasibility-friendly
	// ordering) and then claw the energy back with the refinement
	// pass, which migrates tasks to cheaper PEs while preserving the
	// deadline behavior. Runs only when needed, so the paper-faithful
	// path is untouched on instances EAS handles natively.
	if !best.Schedule.Feasible() && !opts.DisableRepair && !opts.DisableTightenRetry {
		endFB := tr.Span("fallback:deadline-first+refine", "eas phases")
		if fb, err := deadlineFirstSchedule(b, g, order, acg, algorithm, opts); err == nil {
			work.Add(fb.Work)
			refined, stats, err := refine(newEvaluator(b, opts.NaiveContention), fb, 0)
			if err == nil {
				cand := &Result{Schedule: refined, Budget: best.Budget, RefineStats: stats}
				cand.RepairStats = best.RepairStats
				if metricBetter(cand.Schedule, best.Schedule) {
					best = cand
				}
			}
		}
		endFB()
	}
	best.Schedule.Elapsed = time.Since(started)
	best.Work = work
	sched.PublishSchedule(opts.Telemetry.R(), best.Schedule)
	return best, nil
}

// deadlineFirstSchedule builds a schedule that prioritizes feasibility:
// ready tasks are committed in ascending effective-deadline order, each
// on its earliest-finish PE — exactly the EDF decision rule, so it runs
// edf.Pick rather than duplicating the selection logic. order is g's
// topological order. It is the seed of the fallback pass; its energy is
// then reduced by RefineEnergy.
func deadlineFirstSchedule(b *sched.Builder, g *ctg.Graph, order []ctg.TaskID, acg *energy.ACG, algorithm string, opts Options) (*sched.Schedule, error) {
	s, err := b.ListSchedule(g, acg, algorithm, opts.Telemetry.R(),
		!opts.NaiveContention, edf.Pick(g, order))
	if err != nil {
		return nil, fmt.Errorf("eas: fallback: %w", err)
	}
	return s, nil
}

// rowEval is one ready task's half of the Step 2 decision, computed
// independently per RTL row. All cross-task comparisons (which task
// commits) happen afterwards, in choose.
type rowEval struct {
	// minF/minFPE: Eq. 4, the earliest finish over capable PEs (ties to
	// the lower PE) and where it occurs; minFComm is that placement's
	// communication energy (for the degenerate-e1 guard). Exact only
	// when the reduction reads them: the task is over budget
	// (minF >= BD_i) or no PE met the budget. A PE whose finish bound
	// settled its membership enters minF with that bound, which proves
	// minF < BD_i and puts the PE in E1.
	minF     int64
	minFPE   int
	minFComm float64
	// e1/e2: the two cheapest budget-respecting placements (footnote 2);
	// e1PE is where e1 occurs, -1 if no PE met the budget.
	e1, e2 float64
	e1PE   int
	err    error
}

// scanRow evaluates ready task ti's row under budget bd, probing only
// the PEs that can change its answer. It visits the task's PEs by
// ascending cost e_i[k] + comm(i,k), a sched.Row key that needs no
// probe:
//   - a PE whose finish bound drtLB + exec exceeds BD_i cannot meet the
//     budget and is not probed;
//   - a PE whose upper finish bound (Prober.FinishBound) lies strictly
//     below BD_i is in L_i and rules out Step 2.3, so it is not probed
//     either, provided its cost is below +Inf and so enters E1;
//   - the first two PEs that meet the budget are E1 and E2, and once
//     one of the visited PEs finishes strictly before BD_i the task is
//     not over budget (Step 2.3 tests minF >= BD_i), so the scan stops;
//   - a task without a deadline meets its budget everywhere and is
//     never probed.
//
// Only when the scan ends with the task over budget, or with no PE in
// L_i, does the reduction read minF; no bound settled a PE then, and the
// PEs the lower bound skipped are probed too, unless their bound
// already loses to minF. The result equals the full scan's wherever the
// reduction reads it.
func scanRow(pr *sched.Prober, task *ctg.Task, ti ctg.TaskID, bd int64) rowEval {
	row := rowEval{minF: math.MaxInt64, minFPE: -1,
		e1: math.Inf(1), e2: math.Inf(1), e1PE: -1}
	r := pr.Row(ti, sched.RowByCost, func(k int, _ int64, comm float64) float64 {
		return task.Energy[k] + comm
	})
	if len(r.Order) == 0 {
		row.err = fmt.Errorf("eas: task %d runnable on no PE", ti)
		return row
	}
	deadline := bd != ctg.NoDeadline
	probe := func(k int) (int64, error) {
		p, err := pr.ProbeCached(ti, k)
		if err != nil {
			return 0, err
		}
		if p.Finish < row.minF || (p.Finish == row.minF && k < row.minFPE) {
			row.minF, row.minFPE, row.minFComm = p.Finish, k, p.CommEnergy
		}
		return p.Finish, nil
	}
	for _, k32 := range r.Order {
		k := int(k32)
		cost := task.Energy[k] + r.Comm(k)
		if deadline {
			// L_i membership: F(i,k) <= BD_i.
			if r.DRTBound(k)+task.ExecTime[k] > bd {
				continue
			}
			if f := pr.FinishBound(ti, k); f < bd && cost < math.Inf(1) {
				pr.Settle(ti, k)
				if f < row.minF {
					row.minF, row.minFPE, row.minFComm = f, k, r.Comm(k)
				}
			} else {
				f, err := probe(k)
				if err != nil {
					row.err = err
					return row
				}
				if f > bd {
					continue
				}
			}
		}
		// The E1/E2 running minima, with the full scan's update rule.
		switch {
		case cost < row.e1:
			row.e2 = row.e1
			row.e1, row.e1PE = cost, k
		case cost < row.e2:
			row.e2 = cost
		}
		// Later PEs cost at least e2, so E1 and E2 are settled.
		if !math.IsInf(row.e2, 1) && (!deadline || row.minF < bd) {
			return row
		}
	}
	if row.e1PE >= 0 && (!deadline || row.minF < bd) {
		return row
	}
	// minF is read: probe what the first pass skipped.
	for _, k32 := range r.Order {
		k := int(k32)
		lb := r.DRTBound(k) + task.ExecTime[k]
		if deadline && lb <= bd {
			continue // probed above
		}
		if row.minFPE >= 0 && (lb > row.minF || (lb == row.minF && k > row.minFPE)) {
			continue
		}
		if _, err := probe(k); err != nil {
			row.err = err
			return row
		}
	}
	return row
}

// levelSchedule is Step 2: level-based list scheduling over the Ready
// Task List. Every round each RTL row is carried from an earlier round
// where nothing it read has changed, and evaluated by scanRow
// otherwise; the rows are then reduced in ascending RTL order, which
// reproduces the original full scan's tie-breaks exactly (first-wins
// under ascending task IDs is equivalent to the historical "ti < best"
// tie conditions).
func levelSchedule(b *sched.Builder, g *ctg.Graph, acg *energy.ACG, budget *Budget, algorithm string, opts Options) (*sched.Schedule, error) {
	rows := rowsPool.Get().(*[]rowEval)
	defer rowsPool.Put(rows)
	*rows = slices.Grow((*rows)[:0], g.NumTasks())[:g.NumTasks()]
	return b.ListSchedule(g, acg, algorithm, opts.Telemetry.R(), !opts.NaiveContention,
		func(_ *sched.Builder, pr *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
			for _, ti := range rtl {
				// A row reads its keys, final once the task is ready,
				// BD_i, fixed for the pass, and its probes, which Carry
				// checks: a carried row is the scan's bit for bit.
				if !pr.Carry(ti, -1) {
					(*rows)[ti] = scanRow(pr, g.Task(ti), ti, budget.BD[ti])
				}
			}
			return choose(g, budget, rtl, *rows)
		})
}

// rowsPool holds the per-task row scratch of levelSchedule, so that a
// steady-state pass allocates none.
var rowsPool = sync.Pool{New: func() any { return new([]rowEval) }}

// choose is Step 2's sequential reduction of one round's rows, indexed
// by task, in ascending RTL order: the most over-budget task goes to
// its earliest-finish PE (Step 2.3); failing that, the largest-regret
// task goes to its cheapest feasible PE (2.4).
func choose(g *ctg.Graph, budget *Budget, rtl []ctg.TaskID, rows []rowEval) (ctg.TaskID, int, error) {
	var (
		overTask  ctg.TaskID = -1 // most over-budget task (Step 2.3)
		overBy    int64      = math.MinInt64
		overPE    int
		bestTask  ctg.TaskID = -1 // largest energy-regret task (Step 2.4)
		bestDelta            = math.Inf(-1)
		bestE1               = math.Inf(1)
		bestPE    int
	)
	for _, ti := range rtl {
		row := &rows[ti]
		if row.err != nil {
			return 0, 0, row.err
		}
		bd := budget.BD[ti]
		if bd != ctg.NoDeadline && row.minF >= bd {
			// Paper Step 2.3: over budget even on its best PE —
			// urgency beats energy. Track the worst offender.
			if row.minF-bd > overBy {
				overBy, overTask, overPE = row.minF-bd, ti, row.minFPE
			}
			continue
		}
		e1, e2, e1PE := row.e1, row.e2, row.e1PE
		if e1PE < 0 {
			// minF < bd guarantees at least minFPE qualifies, unless
			// its cost is not a number below +Inf. Guard anyway.
			e1PE = row.minFPE
			e1 = g.Task(ti).Energy[row.minFPE] + row.minFComm
			e2 = e1
		}
		if math.IsInf(e2, 1) {
			e2 = e1 // single feasible PE: zero regret
		}
		delta := e2 - e1
		if delta > bestDelta || (delta == bestDelta && e1 < bestE1) {
			bestDelta, bestE1, bestTask, bestPE = delta, e1, ti, e1PE
		}
	}
	if overTask >= 0 {
		return overTask, overPE, nil
	}
	return bestTask, bestPE, nil
}
