package eas

import (
	"fmt"
	"math"
	"slices"
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
	// RepairBudget caps the number of *attempted* repair moves (each
	// attempt re-times the layout until its committed prefix proves the
	// move rejected); 0 selects DefaultRepairBudget. Bounding attempts
	// keeps Step 3 cheap even on hopelessly infeasible instances, where
	// pure greedy search would otherwise grind through an enormous
	// neighborhood.
	RepairBudget int
	// Workers caps the F(i,k) probe worker pool of Step 2; <= 0 means
	// GOMAXPROCS. Any worker count produces bit-identical schedules:
	// probes are evaluated per ready task into index-addressed rows and
	// reduced sequentially in RTL order, reproducing the sequential
	// tie-breaks exactly (the differential tests assert this). Ignored
	// by ScheduleWith, where the workspace's pool configuration wins.
	Workers int
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
	// Probes is the total number of F(i,k) probes evaluated across all
	// budgeting passes and the fallback (the returned Schedule's own
	// Probes field counts only the pass that produced it).
	Probes int64
	// ProbeReuses is how many of Probes were answered from the exact
	// probe cache (Step 2 only; the fallback's EDF probes never are).
	ProbeReuses int64
}

// Schedule runs the full EAS algorithm (Steps 1-3, or 1-2 when repair is
// disabled) on graph g against the architecture acg.
func Schedule(g *ctg.Graph, acg *energy.ACG, opts Options) (*Result, error) {
	return ScheduleWith(sched.NewWorkspace(opts.Workers, false), g, acg, opts)
}

// ScheduleWith runs EAS through a reusable workspace: every budgeting
// pass and the feasibility fallback share the workspace's builder and
// probe pool (reset between passes), and a driver scheduling many
// instances — the batch engine's workers — reuses the same workspace
// across calls, amortizing all table and route-table allocation.
// Schedules are bit-identical to Schedule's. The workspace's pool
// configuration overrides opts.Workers.
func ScheduleWith(ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG, opts Options) (*Result, error) {
	started := time.Now()
	if err := g.Validate(); err != nil {
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
	var totalProbes, totalReuses int64
	tr := opts.Telemetry.T()
	for passNo, p := range passes {
		endPass := tr.Span(fmt.Sprintf("pass %d (scale=%g bw=%d)", passNo, p.scale, p.commBW), "eas")
		endStep := tr.Span("step1:budget", "eas phases")
		budget, err := ComputeBudget(g, opts.Weight, p.scale, p.commBW)
		endStep()
		if err != nil {
			endPass()
			return nil, err
		}
		endStep = tr.Span("step2:level-schedule", "eas phases")
		s, err := levelSchedule(ws, g, acg, budget, algorithm, opts)
		endStep()
		if err != nil {
			endPass()
			return nil, err
		}
		totalProbes += s.Probes
		totalReuses += s.ProbeReuses
		cand := &Result{Schedule: s, Budget: budget}
		if !opts.DisableRepair && !s.Feasible() {
			endStep = tr.Span("step3:repair", "eas phases")
			// Step 3 rebuilds its candidates on Step 2's builder.
			repaired, stats, err := repair(ws.Builder(), s, opts.RepairBudget, opts.NaiveContention)
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
		if fb, err := deadlineFirstSchedule(ws, g, acg, algorithm, opts); err == nil {
			totalProbes += fb.Probes
			refined, stats, err := refine(ws.Builder(), fb, 0, opts.NaiveContention)
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
	best.Probes = totalProbes
	best.ProbeReuses = totalReuses
	sched.PublishSchedule(opts.Telemetry.R(), best.Schedule)
	return best, nil
}

// deadlineFirstSchedule builds a schedule that prioritizes feasibility:
// ready tasks are committed in ascending effective-deadline order, each
// on its earliest-finish PE — exactly the EDF decision loop, so it
// delegates to edf.Drive rather than duplicating the selection logic.
// It is the seed of the fallback pass; its energy is then reduced by
// RefineEnergy.
func deadlineFirstSchedule(ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG, algorithm string, opts Options) (*sched.Schedule, error) {
	dEff, err := edf.EffectiveDeadlines(g)
	if err != nil {
		return nil, err
	}
	b, pool := ws.Prepare(g, acg, algorithm)
	b.SetMetrics(sched.NewMetrics(opts.Telemetry.R(), acg.NumPEs()))
	if opts.NaiveContention {
		b.SetContentionAware(false)
	}
	if err := edf.Drive(b, pool, dEff); err != nil {
		return nil, fmt.Errorf("eas: fallback: %w", err)
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes = pool.Probes()
	return s, nil
}

// rowEval is one ready task's half of the Step 2 decision, computed
// independently per RTL row so rows can be evaluated concurrently. All
// cross-task comparisons (which task commits) happen later, in the
// sequential reduction.
type rowEval struct {
	// minF/minFPE: Eq. 4, the earliest finish over capable PEs (ties to
	// the lower PE) and where it occurs; minFComm is that placement's
	// communication energy (for the degenerate-e1 guard). Exact only
	// when the reduction reads them: the task is over budget
	// (minF >= BD_i) or no PE met the budget.
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
//   - the first two PEs that meet the budget are E1 and E2, and once
//     one of the probed PEs finishes strictly before BD_i the task is
//     not over budget (Step 2.3 tests minF >= BD_i), so the scan stops;
//   - a task without a deadline meets its budget everywhere and is
//     never probed.
//
// Only when the scan ends with the task over budget, or with no PE in
// L_i, does the reduction read minF; then the PEs the budget bound
// skipped are probed too, unless their bound already loses to minF.
// The result equals the full scan's wherever the reduction reads it.
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
		if deadline {
			// L_i membership: F(i,k) <= BD_i.
			if r.DRTBound(k)+task.ExecTime[k] > bd {
				continue
			}
			f, err := probe(k)
			if err != nil {
				row.err = err
				return row
			}
			if f > bd {
				continue
			}
		}
		// The E1/E2 running minima, with the full scan's update rule.
		cost := task.Energy[k] + r.Comm(k)
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
// Task List. Every round, each RTL row is evaluated by scanRow across
// the pool's workers; the rows are then reduced in ascending RTL order
// on this goroutine, which reproduces the original sequential scan's
// tie-breaks exactly (first-wins under ascending task IDs is equivalent
// to the historical "ti < best" tie conditions), so the schedule is
// bit-identical at any worker count.
func levelSchedule(ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG, budget *Budget, algorithm string, opts Options) (*sched.Schedule, error) {
	b, pool := ws.Prepare(g, acg, algorithm)
	metrics := sched.NewMetrics(opts.Telemetry.R(), acg.NumPEs())
	b.SetMetrics(metrics)
	if opts.NaiveContention {
		b.SetContentionAware(false)
	}

	var rtl []ctg.TaskID
	var rows []rowEval
	// evalRow computes rowEval for rtl[i]. Built once — it reads rtl and
	// rows through the captured variables, which are only reassigned
	// between pool.Run calls.
	evalRow := func(pr *sched.Prober, i int) {
		ti := rtl[i]
		rows[i] = scanRow(pr, g.Task(ti), ti, budget.BD[ti])
	}

	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		if len(rtl) == 0 {
			return nil, fmt.Errorf("eas: no ready tasks with %d of %d committed (graph inconsistency)",
				b.Committed(), g.NumTasks())
		}
		metrics.ObserveReadyDepth(len(rtl))
		rows = slices.Grow(rows[:0], len(rtl))[:len(rtl)]
		pool.Run(len(rtl), evalRow)

		commitTask, commitPE, err := choose(g, budget, rtl, rows)
		if err != nil {
			return nil, err
		}
		if _, err := b.Commit(commitTask, commitPE); err != nil {
			return nil, err
		}
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes = pool.Probes()
	s.ProbeReuses = pool.ProbeReuses()
	return s, nil
}

// choose is Step 2's sequential reduction of one round's rows, in
// ascending RTL order: the most over-budget task goes to its
// earliest-finish PE (Step 2.3); failing that, the largest-regret task
// goes to its cheapest feasible PE (2.4).
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
	for i, ti := range rtl {
		row := &rows[i]
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
