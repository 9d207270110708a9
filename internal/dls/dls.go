// Package dls implements Dynamic Level Scheduling, the classic
// communication-aware compile-time list scheduler of Sih and Lee ("A
// compile-time scheduling heuristic for interconnection-constrained
// heterogeneous processor architectures", IEEE TPDS 1993) that the
// paper discusses as related work [10]. Like EDF it optimizes purely
// for performance — it is a second baseline that, unlike EDF, already
// accounts for interprocessor communication in its priority function,
// making it the stronger performance-oriented comparator.
//
// At every step DLS commits the (ready task, PE) pair with the largest
// dynamic level:
//
//	DL(t, p) = SL(t) - max(DA(t, p), TF(p)) + Delta(t, p)
//
// where SL is the static level (longest mean-execution path from t to
// any sink), DA the moment t's data can be available on p (computed
// here with the exact Fig. 3 link-contention model, so DLS competes on
// equal footing), TF the moment p finishes its committed work, and
// Delta(t, p) = meanExec(t) - exec(t, p) the generalization Sih & Lee
// introduce for heterogeneous processors. Each ready task's best level
// is found by a lazy row scan (scanRow) that probes only the PEs whose
// level bound can still win, and equals the full scan's bit for bit.
package dls

import (
	"fmt"
	"math"
	"slices"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
)

// Schedule runs DLS on graph g against architecture acg.
func Schedule(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
	return ScheduleWith(sched.NewWorkspace(1, false), g, acg)
}

// ScheduleWith runs DLS through a reusable workspace (see
// eas.ScheduleWith). Each round probes the ready list through the
// workspace's pool, one row per ready task, and reduces the rows in
// ascending task order, so schedules are bit-identical at any worker
// count and to Schedule's.
func ScheduleWith(ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
	started := time.Now()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("dls: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	meanExec := meanExecTimes(g)
	sl, err := staticLevels(g, meanExec)
	if err != nil {
		return nil, err
	}

	b, pool := ws.Prepare(g, acg, "dls")
	// peFree[k] tracks TF(p): when PE k's committed work ends.
	peFree := make([]int64, acg.NumPEs())

	var rtl []ctg.TaskID
	var rows []row
	// evalRow fills rows[i] for rtl[i]. Built once — it reads rtl, rows
	// and peFree through the captured variables, which only change
	// between pool runs.
	evalRow := func(pr *sched.Prober, i int) {
		t := rtl[i]
		rows[i] = scanRow(pr, g.Task(t), t, sl[t], meanExec[t], peFree)
	}

	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		if len(rtl) == 0 {
			return nil, fmt.Errorf("dls: no ready tasks with %d of %d committed",
				b.Committed(), g.NumTasks())
		}
		rows = slices.Grow(rows[:0], len(rtl))[:len(rtl)]
		pool.Run(len(rtl), evalRow)

		bestTask, bestPE, err := choose(rtl, rows)
		if err != nil {
			return nil, err
		}
		p, err := b.Commit(bestTask, bestPE)
		if err != nil {
			return nil, err
		}
		if p.Finish > peFree[bestPE] {
			peFree[bestPE] = p.Finish
		}
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes = pool.Probes()
	s.ProbeReuses = pool.ProbeReuses()
	s.Elapsed = time.Since(started)
	return s, nil
}

// row is one ready task's best dynamic level and the PE it occurs on,
// ties to the lower PE.
type row struct {
	dl  float64
	pe  int
	err error
}

// scanRow finds ready task t's best dynamic level, given its static
// level sl, mean execution time mean and the PEs' finish times peFree,
// probing only the PEs that could still reach it. A probe's start is at
// least the row's data-ready bound drtLB (sched.Row), so each PE's level
// has two upper bounds that need no probe:
//
//	SB_k = SL - drtLB_k + Delta_k               (static: the scan order)
//	UB_k = SL - max(drtLB_k, TF(k)) + Delta_k   (this round)
//
// written in the level's own float expression order, so rounding keeps
// SB_k >= UB_k >= DL(t, k). The PE with the highest UB_k is probed
// first: it most often holds the best level, which then prunes the
// most. The rest are visited by descending SB_k; the scan stops when
// SB_k falls below the best level found and skips a PE whose UB_k
// cannot beat it (ties to the lower PE). The result is the full scan's
// bit for bit.
func scanRow(pr *sched.Prober, task *ctg.Task, t ctg.TaskID, sl, mean float64, peFree []int64) row {
	r := pr.Row(t, sched.RowByLevel, func(k int, drtLB int64, _ float64) float64 {
		return -(sl - float64(drtLB) + (mean - float64(task.ExecTime[k])))
	})
	delta := func(k int) float64 { return mean - float64(task.ExecTime[k]) }
	ub := func(k int) float64 {
		return sl - max(float64(r.DRTBound(k)), float64(peFree[k])) + delta(k)
	}
	best := row{dl: math.Inf(-1), pe: -1}
	visit := func(k int) error {
		p, err := pr.ProbeCached(t, k)
		if err != nil {
			return err
		}
		// max(DA, TF) is the probe's start time by construction
		// (earliest slot after data-ready on the PE table).
		startCost := max(float64(p.Start), float64(peFree[k]))
		if dl := sl - startCost + delta(k); dl > best.dl || (dl == best.dl && k < best.pe) {
			best.dl, best.pe = dl, k
		}
		return nil
	}
	first, firstUB := -1, math.Inf(-1)
	for _, k32 := range r.Order {
		if k, u := int(k32), ub(int(k32)); first < 0 || u > firstUB {
			first, firstUB = k, u
		}
	}
	if first < 0 {
		return best
	}
	if err := visit(first); err != nil {
		return row{err: err}
	}
	for _, k32 := range r.Order {
		k := int(k32)
		if sl-float64(r.DRTBound(k))+delta(k) < best.dl {
			break
		}
		if u := ub(k); k == first || u < best.dl || (u == best.dl && k > best.pe) {
			continue
		}
		if err := visit(k); err != nil {
			return row{err: err}
		}
	}
	return best
}

// choose reduces one round's rows in ascending task order: the first
// largest level wins, ties to the lower task then the lower PE.
func choose(rtl []ctg.TaskID, rows []row) (ctg.TaskID, int, error) {
	bestDL := math.Inf(-1)
	bestTask := ctg.TaskID(-1)
	bestPE := -1
	for i, t := range rtl {
		r := &rows[i]
		if r.err != nil {
			return 0, 0, r.err
		}
		if r.dl > bestDL {
			bestDL, bestTask, bestPE = r.dl, t, r.pe
		}
	}
	if bestTask < 0 {
		return 0, 0, fmt.Errorf("dls: no schedulable (task, PE) pair")
	}
	return bestTask, bestPE, nil
}

// meanExecTimes returns every task's mean execution time over the PEs
// that can run it (0 when none can), summed in PE order without
// collecting the times first.
func meanExecTimes(g *ctg.Graph) []float64 {
	means := make([]float64, g.NumTasks())
	for i := range means {
		sum, n := 0.0, 0
		for _, r := range g.Task(ctg.TaskID(i)).ExecTime {
			if r >= 0 {
				sum += float64(r)
				n++
			}
		}
		if n > 0 {
			means[i] = sum / float64(n)
		}
	}
	return means
}

// staticLevels returns SL(t) for every task: the largest sum of mean
// execution times (meanExec) along any path from t to a sink,
// inclusive of t.
func staticLevels(g *ctg.Graph, meanExec []float64) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	sl := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, eid := range g.Out(t) {
			best = max(best, sl[g.Edge(eid).Dst])
		}
		sl[t] = best + meanExec[t]
	}
	return sl, nil
}
