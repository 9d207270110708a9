package eas

import (
	"errors"
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
	"nocsched/internal/verify/workloadgen"
)

// eagerRow is the Step 2 row by definition: probe ready task ti on
// every capable PE in index order, take Eq. 4's earliest finish (ties to
// the lower PE) and footnote 2's two cheapest budget-respecting costs.
func eagerRow(pr *sched.Prober, task *ctg.Task, ti ctg.TaskID, bd int64) rowEval {
	row := rowEval{minF: math.MaxInt64, minFPE: -1,
		e1: math.Inf(1), e2: math.Inf(1), e1PE: -1}
	for k := range task.ExecTime {
		if !task.RunnableOn(k) {
			continue
		}
		p, err := pr.Probe(ti, k)
		if err != nil {
			row.err = err
			return row
		}
		if p.Finish < row.minF {
			row.minF, row.minFPE, row.minFComm = p.Finish, k, p.CommEnergy
		}
		if bd != ctg.NoDeadline && p.Finish > bd {
			continue
		}
		cost := task.Energy[k] + p.CommEnergy
		switch {
		case cost < row.e1:
			row.e2 = row.e1
			row.e1, row.e1PE = cost, k
		case cost < row.e2:
			row.e2 = cost
		}
	}
	if row.minFPE < 0 {
		row.err = errors.New("runnable on no PE")
	}
	return row
}

// sameRow reports whether the lazy row agrees with the eager one on
// everything choose reads: E1, E2 and e1PE, the over-budget verdict,
// and, where choose reads them (over budget, or no PE in L_i), minF and
// where it occurs.
func sameRow(lazy, eager rowEval, bd int64) bool {
	if (lazy.err != nil) != (eager.err != nil) {
		return false
	}
	if eager.err != nil {
		return true
	}
	over := func(r rowEval) bool { return bd != ctg.NoDeadline && r.minF >= bd }
	if over(lazy) != over(eager) {
		return false
	}
	if over(eager) || eager.e1PE < 0 {
		return lazy.minF == eager.minF && lazy.minFPE == eager.minFPE &&
			math.Float64bits(lazy.minFComm) == math.Float64bits(eager.minFComm) && lazy.e1PE == eager.e1PE
	}
	return math.Float64bits(lazy.e1) == math.Float64bits(eager.e1) &&
		math.Float64bits(lazy.e2) == math.Float64bits(eager.e2) && lazy.e1PE == eager.e1PE
}

// eagerStep2 is the reference Step 2: it evaluates every row of every
// round both eagerly (eagerRow) and lazily (scanRow), fails the test
// where they disagree, and commits what choose picks from the eager
// rows. It returns the schedule and the number of rows compared.
func eagerStep2(t testing.TB, g *ctg.Graph, acg *energy.ACG, budget *Budget, naive bool) (*sched.Schedule, int) {
	t.Helper()
	b := sched.NewBuilder(g, acg, "eas")
	if naive {
		b.SetContentionAware(false)
	}
	ref, lazyPr := b.NewProber(), b.NewProber()
	var rtl []ctg.TaskID
	var rows []rowEval
	n := 0
	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		rows = rows[:0]
		for _, ti := range rtl {
			eager := eagerRow(ref, g.Task(ti), ti, budget.BD[ti])
			lazy := scanRow(lazyPr, g.Task(ti), ti, budget.BD[ti])
			if !sameRow(lazy, eager, budget.BD[ti]) {
				t.Fatalf("%s task %d (BD %d) after %d commits: lazy row %+v, eager %+v",
					g.Name, ti, budget.BD[ti], b.Committed(), lazy, eager)
			}
			rows = append(rows, eager)
			n++
		}
		task, pe, err := choose(g, budget, rtl, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Commit(task, pe); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

// budgetPasses are the Step 1 budgets ScheduleWith tries, loosest
// first: the tighter ones put tasks over budget (Step 2.3).
func budgetPasses(t testing.TB, g *ctg.Graph, acg *energy.ACG) []*Budget {
	t.Helper()
	bw := acg.Platform().LinkBandwidth
	var out []*Budget
	for _, p := range []struct {
		scale float64
		bw    int64
	}{{1, 0}, {1, bw}, {0.5, bw}, {0, bw}} {
		budget, err := ComputeBudget(g, nil, p.scale, p.bw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, budget)
	}
	return out
}

// checkStep2 runs eagerStep2 under every budget pass, with both
// contention models, and requires levelSchedule's lazy schedule to be
// identical (sched.Diff) to the eager reference's.
func checkStep2(t testing.TB, ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG) int {
	t.Helper()
	n := 0
	for _, budget := range budgetPasses(t, g, acg) {
		for _, naive := range []bool{false, true} {
			want, rows := eagerStep2(t, g, acg, budget, naive)
			n += rows
			got, err := levelSchedule(ws, g, acg, budget, "eas", Options{NaiveContention: naive})
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.Diff(want, got); d != "" {
				t.Fatalf("%s (naive %v): eager vs lazy Step 2: %s", g.Name, naive, d)
			}
		}
	}
	return n
}

// TestLazyRowDifferential compares every Step 2 row of every round,
// lazy against eager, over the golden and conformance corpora, under
// each budget pass ScheduleWith tries and both contention models, and
// requires the resulting schedules to be identical.
func TestLazyRowDifferential(t *testing.T) {
	golden, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	conf, err := workloadgen.Corpus(7)
	if err != nil {
		t.Fatal(err)
	}
	ws := sched.NewWorkspace(1, false)
	n := 0
	for _, w := range append(golden, conf...) {
		n += checkStep2(t, ws, w.Graph, w.ACG)
	}
	t.Logf("%d rows compared", n)
}

// eagerDLS is DLS by definition: every round, the dynamic level of
// every ready task on every capable PE, the first largest committed.
func eagerDLS(t testing.TB, g *ctg.Graph, acg *energy.ACG) *sched.Schedule {
	t.Helper()
	n := g.NumTasks()
	mean := make([]float64, n)
	for i := range mean {
		sum, c := 0.0, 0
		for _, r := range g.Task(ctg.TaskID(i)).ExecTime {
			if r >= 0 {
				sum += float64(r)
				c++
			}
		}
		if c > 0 {
			mean[i] = sum / float64(c)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	sl := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		ti := order[i]
		best := 0.0
		for _, eid := range g.Out(ti) {
			best = max(best, sl[g.Edge(eid).Dst])
		}
		sl[ti] = best + mean[ti]
	}
	b := sched.NewBuilder(g, acg, "dls")
	pr := b.NewProber()
	peFree := make([]int64, acg.NumPEs())
	for b.Committed() < n {
		bestDL, bestTask, bestPE := math.Inf(-1), ctg.TaskID(-1), -1
		for _, ti := range b.AppendReady(nil) {
			task := g.Task(ti)
			for k := range task.ExecTime {
				if !task.RunnableOn(k) {
					continue
				}
				p, err := pr.Probe(ti, k)
				if err != nil {
					t.Fatal(err)
				}
				start := max(float64(p.Start), float64(peFree[k]))
				if dl := sl[ti] - start + (mean[ti] - float64(task.ExecTime[k])); dl > bestDL {
					bestDL, bestTask, bestPE = dl, ti, k
				}
			}
		}
		p, err := b.Commit(bestTask, bestPE)
		if err != nil {
			t.Fatal(err)
		}
		peFree[bestPE] = max(peFree[bestPE], p.Finish)
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// eagerEDF is the EDF baseline by definition: the ready task with the
// earliest effective deadline (ties to the lower ID) goes to the capable
// PE that finishes it first (ties to the lower PE), probing every PE.
func eagerEDF(t testing.TB, g *ctg.Graph, acg *energy.ACG) *sched.Schedule {
	t.Helper()
	dEff, err := edf.EffectiveDeadlines(g)
	if err != nil {
		t.Fatal(err)
	}
	b := sched.NewBuilder(g, acg, "edf")
	pr := b.NewProber()
	for b.Committed() < g.NumTasks() {
		rtl := b.AppendReady(nil)
		pick := rtl[0]
		for _, ti := range rtl[1:] {
			if dEff[ti] < dEff[pick] {
				pick = ti
			}
		}
		task := g.Task(pick)
		bestPE, bestF := -1, int64(0)
		for k := range task.ExecTime {
			if !task.RunnableOn(k) {
				continue
			}
			p, err := pr.Probe(pick, k)
			if err != nil {
				t.Fatal(err)
			}
			if bestPE < 0 || p.Finish < bestF {
				bestPE, bestF = k, p.Finish
			}
		}
		if _, err := b.Commit(pick, bestPE); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzLazyRows generates small TGFF graphs — up to 60 tasks on a 2x2 to
// 4x4 mesh, deadline laxity from very tight to loose, some tasks without
// a deadline — and requires each lazy row scan to schedule exactly as
// the eager scan it replaces: EAS Step 2 under every budget pass (with
// every row compared, see eagerStep2), DLS and EDF.
func FuzzLazyRows(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(2), 1.2, int64(1))
	f.Add(uint8(45), uint8(0), uint8(1), 0.4, int64(7))
	f.Add(uint8(12), uint8(1), uint8(0), 0.05, int64(3))
	f.Add(uint8(58), uint8(2), uint8(0), 3.0, int64(11))
	f.Fuzz(func(t *testing.T, tasks, w, h uint8, laxity float64, seed int64) {
		if math.IsNaN(laxity) || laxity < 0.01 || laxity > 4 {
			t.Skip("laxity out of range")
		}
		platform, err := noc.NewHeterogeneousMesh(2+int(w)%3, 2+int(h)%3, noc.RouteXY, 100)
		if err != nil {
			t.Fatal(err)
		}
		acg, err := energy.BuildACG(platform, energy.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
		p.Seed = seed
		p.NumTasks = 2 + int(tasks)%59
		p.LocalityWindow = 8
		p.DeadlineLaxity = laxity
		if seed%2 != 0 {
			p.DeadlineFraction = 0.5
		}
		g, err := tgff.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		ws := sched.NewWorkspace(1, false)
		checkStep2(t, ws, g, acg)
		got, err := dls.ScheduleWith(ws, g, acg)
		if err != nil {
			t.Fatal(err)
		}
		if d := sched.Diff(eagerDLS(t, g, acg), got); d != "" {
			t.Fatalf("DLS eager vs lazy: %s", d)
		}
		gotEDF, err := edf.ScheduleWith(ws, g, acg, edf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := sched.Diff(eagerEDF(t, g, acg), gotEDF); d != "" {
			t.Fatalf("EDF eager vs lazy: %s", d)
		}
	})
}
