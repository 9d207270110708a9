package eas

import (
	"errors"
	"fmt"
	"math"
	"runtime"
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

// identicalRow reports whether two scans of one row agree on every
// field, bit for bit, both without an error.
func identicalRow(a, b rowEval) bool {
	return a.err == nil && b.err == nil && a.minF == b.minF && a.minFPE == b.minFPE &&
		math.Float64bits(a.minFComm) == math.Float64bits(b.minFComm) &&
		math.Float64bits(a.e1) == math.Float64bits(b.e1) &&
		math.Float64bits(a.e2) == math.Float64bits(b.e2) && a.e1PE == b.e1PE
}

// eagerStep2 is the reference Step 2, the always-re-scan loop, run on
// ref, a builder the caller reuses across passes and instances. Every
// round it takes each ready task's row eagerly (eagerRow), by a fresh
// scanRow on a second prober, and as levelSchedule does on ref's own
// prober: carried where Carry vouches for it, scanned otherwise. It
// fails the test where the fresh row disagrees with the eager one on
// what choose reads, or the kept row with the fresh one on any field,
// and commits what choose picks from the eager rows. It returns the
// schedule, the rows compared and how many of them were carried.
func eagerStep2(t testing.TB, ref *sched.Builder, g *ctg.Graph, acg *energy.ACG, budget *Budget, naive bool) (*sched.Schedule, int, int) {
	t.Helper()
	eager, kept := make([]rowEval, g.NumTasks()), make([]rowEval, g.NumTasks())
	var eagerPr, freshPr *sched.Prober
	n, carried := 0, 0
	s, err := ref.ListSchedule(g, acg, "eas", nil, !naive,
		func(b *sched.Builder, pr *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
			if eagerPr == nil {
				eagerPr, freshPr = b.NewProber(), b.NewProber()
			}
			for _, ti := range rtl {
				bd := budget.BD[ti]
				eager[ti] = eagerRow(eagerPr, g.Task(ti), ti, bd)
				lazy := scanRow(freshPr, g.Task(ti), ti, bd)
				if !sameRow(lazy, eager[ti], bd) {
					t.Fatalf("%s task %d (BD %d) after %d commits: lazy row %+v, eager %+v",
						g.Name, ti, bd, b.Committed(), lazy, eager[ti])
				}
				c := pr.Carry(ti, -1)
				if c {
					carried++
				} else {
					kept[ti] = scanRow(pr, g.Task(ti), ti, bd)
				}
				if !identicalRow(kept[ti], lazy) {
					t.Fatalf("%s task %d (BD %d) after %d commits (carried %v): row %+v, fresh scan %+v",
						g.Name, ti, bd, b.Committed(), c, kept[ti], lazy)
				}
				n++
			}
			return choose(g, budget, rtl, eager)
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.RowsCarried != int64(carried) {
		t.Errorf("%s: schedule counts %d carried rows, the reference loop %d", g.Name, s.RowsCarried, carried)
	}
	return s, n, carried
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

// checkStep2 runs eagerStep2 on ref under every budget pass, with both
// contention models, and requires levelSchedule's schedule on ws to be
// identical (sched.Diff) to the reference's. It returns the rows
// compared and how many of them were carried.
func checkStep2(t testing.TB, ref, ws *sched.Builder, g *ctg.Graph, acg *energy.ACG) (int, int) {
	t.Helper()
	n, carried := 0, 0
	for _, budget := range budgetPasses(t, g, acg) {
		for _, naive := range []bool{false, true} {
			want, rows, c := eagerStep2(t, ref, g, acg, budget, naive)
			n, carried = n+rows, carried+c
			got, err := levelSchedule(ws, g, acg, budget, "eas", Options{NaiveContention: naive})
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.Diff(want, got); d != "" {
				t.Fatalf("%s (naive %v): eager vs lazy Step 2: %s", g.Name, naive, d)
			}
		}
	}
	return n, carried
}

// TestLazyRowDifferential compares every Step 2 row of every round —
// eager, freshly scanned, and carried or scanned as levelSchedule takes
// it — over the golden and conformance corpora, under each budget pass
// ScheduleWith tries and both contention models, and requires the
// resulting schedules to be identical.
func TestLazyRowDifferential(t *testing.T) {
	golden, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	conf, err := workloadgen.Corpus(7)
	if err != nil {
		t.Fatal(err)
	}
	ref, ws := new(sched.Builder), new(sched.Builder)
	n, carried := 0, 0
	for _, w := range append(golden, conf...) {
		rows, c := checkStep2(t, ref, ws, w.Graph, w.ACG)
		n, carried = n+rows, carried+c
	}
	t.Logf("%d rows compared, %d of them carried", n, carried)
}

// TestCarriedRowDifferential holds carried Step 2 rows to fresh scans
// where they are plentiful: two 200-task batch-loose-shaped graphs, one
// of them with every third task's execution time zeroed (a zero-time
// commit writes no PE table, and a Step 2 row reads nothing else of its
// PE), and two batch-tight-shaped ones, under every budget pass and
// both contention models, on one reference builder reused throughout,
// so a carried row that outlived its pass would be caught too.
func TestCarriedRowDifferential(t *testing.T) {
	loose, acg := looseGraphs(t, 200, 2)
	zero, err := workloadgen.ZeroEvery(loose[1], 3)
	if err != nil {
		t.Fatal(err)
	}
	tight, _ := shapeGraphs(t, tgff.CategoryII, 30, 0.95, 2)
	ref, ws := new(sched.Builder), new(sched.Builder)
	n, carried := 0, 0
	for _, g := range append([]*ctg.Graph{loose[0], zero}, tight...) {
		rows, c := checkStep2(t, ref, ws, g, acg)
		n, carried = n+rows, carried+c
	}
	t.Logf("%d rows compared, %d of them carried", n, carried)
	if carried == 0 {
		t.Fatal("no row was carried")
	}
}

// TestStep2BoundSaturates holds Step 2 to the eager scan where the
// finish bound's sum of transfer times passes math.MaxInt64 while every
// real transaction fits. On a 2x2 mesh at one bit per time unit, three
// senders pinned to PEs 1, 2 and 3 each send 0.4 x MaxInt64 bits to a
// receiver that runs only on PE 0. The transfers from PEs 2 and 3 share
// the link into PE 0, so the receiver's data are ready at 0.8 x MaxInt64,
// past its deadline of 0.6 x MaxInt64, while its lower finish bound is
// 0.4 x MaxInt64. A bound that wrapped instead of saturating would come
// out negative and admit PE 0 to L_i.
func TestStep2BoundSaturates(t *testing.T) {
	const (
		vol      = math.MaxInt64 / 5 * 2
		deadline = math.MaxInt64 / 5 * 3
	)
	if vol <= math.MaxInt64/3 {
		t.Fatal("three transfers must overflow int64")
	}
	platform, err := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 1)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("bound-saturates")
	pinned := func(name string, pe int, d int64) ctg.TaskID {
		exec := []int64{-1, -1, -1, -1}
		exec[pe] = 10
		id, err := g.AddTask(name, exec, []float64{1, 1, 1, 1}, d)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	recv := pinned("recv", 0, deadline)
	for pe := 1; pe <= 3; pe++ {
		if _, err := g.AddEdge(pinned(fmt.Sprint("send", pe), pe, ctg.NoDeadline), recv, vol); err != nil {
			t.Fatal(err)
		}
	}
	checkStep2(t, new(sched.Builder), new(sched.Builder), g, acg)
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
// a deadline, every third task zero-time for a third of the seeds — and
// requires each lazy row scan, with rows carried across rounds where
// nothing they read changed, to schedule exactly as the eager scan it
// replaces: EAS Step 2 under every budget pass (with every row,
// carried ones included, compared: see eagerStep2), DLS and EDF.
func FuzzLazyRows(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(2), 1.2, int64(1))
	f.Add(uint8(45), uint8(0), uint8(1), 0.4, int64(7))
	f.Add(uint8(12), uint8(1), uint8(0), 0.05, int64(3))
	f.Add(uint8(58), uint8(2), uint8(0), 3.0, int64(11))
	f.Add(uint8(50), uint8(2), uint8(2), 1.5, int64(6))
	// Loose: 58 tasks at laxity 3.0 with a deadline on every sink, where
	// the finish bound settles most L_i memberships.
	f.Add(uint8(56), uint8(2), uint8(2), 3.0, int64(4))
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
		if seed%3 == 0 {
			// Zero-time tasks: their commits write no PE table but
			// still raise the PE's finish time, which DLS reads.
			if g, err = workloadgen.ZeroEvery(g, 3); err != nil {
				t.Fatal(err)
			}
		}
		ws := new(sched.Builder)
		checkStep2(t, new(sched.Builder), ws, g, acg)
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

// TestStep2RowCounts pins the deterministic row-scan work of EAS Step 2
// (the first budget pass, exact contention) and of DLS over four
// 300-task batch-loose-shaped graphs: the rows scanned, the rows
// carried, the probes and the membership tests a finish bound settled
// instead of a probe, equal at GOMAXPROCS 1 and 4 and whether each
// solve gets a fresh builder or all share one. Every Step 2 test the
// bound settles is one probe fewer: probes plus settled tests equal the
// 13,096 probes of the probe-only scan.
func TestStep2RowCounts(t *testing.T) {
	gs, acg := looseGraphs(t, 300, 4)
	type counts struct{ rows, carried, probes, settled int64 }
	total := func(shared bool) (step2, dlsCounts counts) {
		ws := new(sched.Builder)
		add := func(c *counts, s *sched.Schedule) {
			c.rows += s.RowScans
			c.carried += s.RowsCarried
			c.probes += s.Probes
			c.settled += s.BoundSettled
		}
		for _, g := range gs {
			if !shared {
				ws = new(sched.Builder)
			}
			budget, err := ComputeBudget(g, nil, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := levelSchedule(ws, g, acg, budget, "eas", Options{})
			if err != nil {
				t.Fatal(err)
			}
			add(&step2, s)
			if s, err = dls.ScheduleWith(ws, g, acg); err != nil {
				t.Fatal(err)
			}
			add(&dlsCounts, s)
		}
		return step2, dlsCounts
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	step2, dlsCounts := total(false)
	t.Logf("Step 2: %+v; DLS: %+v", step2, dlsCounts)
	for _, run := range []struct {
		procs  int
		shared bool
	}{{1, true}, {4, false}, {4, true}} {
		runtime.GOMAXPROCS(run.procs)
		if s, d := total(run.shared); s != step2 || d != dlsCounts {
			t.Errorf("GOMAXPROCS %d, shared builder %v: Step 2 %+v, DLS %+v; want %+v, %+v",
				run.procs, run.shared, s, d, step2, dlsCounts)
		}
	}
	wantStep2 := counts{rows: 4771, carried: 2794, probes: 5635, settled: 7461}
	wantDLS := counts{rows: 8567, carried: 21883, probes: 12045}
	if step2 != wantStep2 || dlsCounts != wantDLS {
		t.Errorf("Step 2 %+v, DLS %+v; pinned %+v, %+v", step2, dlsCounts, wantStep2, wantDLS)
	}
	if step2.probes+step2.settled != 13096 {
		t.Errorf("Step 2: %d probes + %d settled tests, want the probe-only scan's 13096",
			step2.probes, step2.settled)
	}
}
