// Package dls implements Dynamic Level Scheduling, the classic
// communication-aware compile-time list scheduler of Sih and Lee ("A
// compile-time scheduling heuristic for interconnection-constrained
// heterogeneous processor architectures", IEEE TPDS 1993) that the
// paper discusses as related work [10]. Like EDF it optimizes purely
// for performance — it is a second baseline that, unlike EDF, already
// accounts for interprocessor communication in its priority function,
// making it the stronger performance-oriented comparator.
//
// At every step DLS evaluates the dynamic level of every (ready task,
// PE) pair:
//
//	DL(t, p) = SL(t) - max(DA(t, p), TF(p)) + Delta(t, p)
//
// where SL is the static level (longest mean-execution path from t to
// any sink), DA the moment t's data can be available on p (computed
// here with the exact Fig. 3 link-contention model, so DLS competes on
// equal footing), TF the moment p finishes its committed work, and
// Delta(t, p) = meanExec(t) - exec(t, p) the generalization Sih & Lee
// introduce for heterogeneous processors. The pair with the largest
// dynamic level is committed.
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

	b, pool, err := ws.Prepare(g, acg, "dls")
	if err != nil {
		return nil, err
	}
	npe := acg.NumPEs()
	// peFree[k] tracks TF(p): when PE k's committed work ends.
	peFree := make([]int64, npe)

	// row is one ready task's best dynamic level and the PE it occurs
	// on, ties to the lower PE.
	type row struct {
		dl  float64
		pe  int
		err error
	}
	var rtl []ctg.TaskID
	var rows []row
	// evalRow fills rows[i] for rtl[i]. Built once — it reads rtl, rows
	// and peFree through the captured variables, which only change
	// between pool runs.
	evalRow := func(pr *sched.Prober, i int) {
		t := rtl[i]
		task := g.Task(t)
		r := row{dl: math.Inf(-1), pe: -1}
		for k := 0; k < npe; k++ {
			if !task.RunnableOn(k) {
				continue
			}
			p, err := pr.ProbeCached(t, k)
			if err != nil {
				rows[i] = row{err: err}
				return
			}
			// max(DA, TF) is the probe's start time by construction
			// (earliest slot after data-ready on the PE table).
			startCost := float64(p.Start)
			if f := float64(peFree[k]); f > startCost {
				startCost = f
			}
			delta := meanExec[t] - float64(task.ExecTime[k])
			if dl := sl[t] - startCost + delta; dl > r.dl {
				r.dl, r.pe = dl, k
			}
		}
		rows[i] = r
	}

	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		if len(rtl) == 0 {
			return nil, fmt.Errorf("dls: no ready tasks with %d of %d committed",
				b.Committed(), g.NumTasks())
		}
		rows = slices.Grow(rows[:0], len(rtl))[:len(rtl)]
		pool.RunWeighted(len(rtl), npe, evalRow)

		// Sequential reduction in ascending task order: the first
		// largest level wins, ties to the lower task then the lower PE.
		bestDL := math.Inf(-1)
		bestTask := ctg.TaskID(-1)
		bestPE := -1
		for i, t := range rtl {
			r := &rows[i]
			if r.err != nil {
				return nil, r.err
			}
			if r.dl > bestDL {
				bestDL, bestTask, bestPE = r.dl, t, r.pe
			}
		}
		if bestTask < 0 {
			return nil, fmt.Errorf("dls: no schedulable (task, PE) pair")
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
