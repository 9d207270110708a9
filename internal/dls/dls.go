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
	"sync"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
)

// Schedule runs DLS on graph g against architecture acg.
func Schedule(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
	return ScheduleWith(new(sched.Builder), g, acg)
}

// ScheduleWith runs DLS on the reusable builder b (see
// eas.ScheduleWith). Each round takes one row per ready task — carried
// from an earlier round where nothing it read has changed, scanned
// through the builder's prober otherwise — and reduces the rows in
// ascending task order; schedules are bit-identical to Schedule's.
func ScheduleWith(b *sched.Builder, g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
	started := time.Now()
	order, err := g.ValidatedOrder()
	if err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("dls: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	meanExec := meanExecTimes(g)
	sl := staticLevels(g, order, meanExec)

	// peFree[k] tracks TF(p): when PE k's committed work ends. Each
	// round first folds in the previous round's commit.
	peFree := make([]int64, acg.NumPEs())
	last := ctg.TaskID(-1)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.rows = slices.Grow(sc.rows[:0], g.NumTasks())[:g.NumTasks()]
	sc.ub = slices.Grow(sc.ub[:0], acg.NumPEs())[:acg.NumPEs()]
	rows := &sc.rows
	s, err := b.ListSchedule(g, acg, "dls", nil, true,
		func(_ *sched.Builder, pr *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
			moved := -1
			if last >= 0 {
				p := b.TaskPlacement(last)
				peFree[p.PE] = max(peFree[p.PE], p.Finish)
				moved = p.PE
			}
			for _, t := range rtl {
				// A carried row is exact. It read the PE tables and links
				// its probes read, which Carry checked, and TF on every
				// runnable PE through the bounds UB_k. The last commit
				// raised TF on its PE alone (moved): a row that probed
				// it is re-scanned. A row that did not probe it did not
				// pick it first (the first PE is always probed), and a
				// higher TF only lowers its UB_k, so it stays
				// unpicked and every skip the scan made stays a skip.
				if !pr.Carry(t, moved) {
					(*rows)[t] = scanRow(pr, g.Task(t), t, sl[t], meanExec[t], peFree, sc.ub)
				}
			}
			t, pe, err := choose(rtl, *rows)
			last = t
			return t, pe, err
		})
	if err != nil {
		return nil, err
	}
	s.Elapsed = time.Since(started)
	return s, nil
}

// scratchPool holds ScheduleWith's scratch, so that a steady-state
// solve allocates none.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch is one solve's per-task rows and one scan's per-PE level
// bounds UB_k (see scanRow).
type scratch struct {
	rows []row
	ub   []float64
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
// bit for bit. Each UB_k is computed once, into ub (indexed by PE).
func scanRow(pr *sched.Prober, task *ctg.Task, t ctg.TaskID, sl, mean float64, peFree []int64, ub []float64) row {
	r := pr.Row(t, sched.RowByLevel, func(k int, drtLB int64, _ float64) float64 {
		return -(sl - float64(drtLB) + (mean - float64(task.ExecTime[k])))
	})
	delta := func(k int) float64 { return mean - float64(task.ExecTime[k]) }
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
		k := int(k32)
		u := sl - max(float64(r.DRTBound(k)), float64(peFree[k])) + delta(k)
		ub[k] = u
		if first < 0 || u > firstUB {
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
		if u := ub[k]; k == first || u < best.dl || (u == best.dl && k > best.pe) {
			continue
		}
		if err := visit(k); err != nil {
			return row{err: err}
		}
	}
	return best
}

// choose reduces one round's rows, indexed by task, in ascending task
// order: the first largest level wins, ties to the lower task then the
// lower PE.
func choose(rtl []ctg.TaskID, rows []row) (ctg.TaskID, int, error) {
	bestDL := math.Inf(-1)
	bestTask := ctg.TaskID(-1)
	bestPE := -1
	for _, t := range rtl {
		r := &rows[t]
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
// inclusive of t. order is g's topological order.
func staticLevels(g *ctg.Graph, order []ctg.TaskID, meanExec []float64) []float64 {
	sl := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, eid := range g.Out(t) {
			best = max(best, sl[g.Edge(eid).Dst])
		}
		sl[t] = best + meanExec[t]
	}
	return sl
}
