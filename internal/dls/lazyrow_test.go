package dls

import (
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// eagerRow is the DLS row by definition: the dynamic level of ready
// task t on every capable PE in index order, the first largest kept.
// check sees every PE's level.
func eagerRow(t *testing.T, pr *sched.Prober, task *ctg.Task, ti ctg.TaskID, sl, mean float64,
	peFree []int64, check func(k int, dl float64)) row {
	t.Helper()
	r := row{dl: math.Inf(-1), pe: -1}
	for k := range task.ExecTime {
		if !task.RunnableOn(k) {
			continue
		}
		p, err := pr.Probe(ti, k)
		if err != nil {
			t.Fatal(err)
		}
		startCost := max(float64(p.Start), float64(peFree[k]))
		dl := sl - startCost + (mean - float64(task.ExecTime[k]))
		check(k, dl)
		if dl > r.dl {
			r.dl, r.pe = dl, k
		}
	}
	return r
}

// TestLazyRowDifferential runs DLS over the golden and conformance
// corpora with every row of every round evaluated both eagerly and by
// scanRow: both must find the same level, bit for bit, on the same PE,
// and no PE's static or per-round bound may fall below its probed
// level. Rounds commit what the eager rows choose, and the result must
// be identical to ScheduleWith's.
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
		n += checkRows(t, ws, w.Graph, w.ACG)
	}
	t.Logf("%d rows compared", n)
}

// checkRows is one TestLazyRowDifferential instance; it returns the
// number of rows compared.
func checkRows(t *testing.T, ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG) int {
	meanExec := meanExecTimes(g)
	sl, err := staticLevels(g, meanExec)
	if err != nil {
		t.Fatal(err)
	}
	b := sched.NewBuilder(g, acg, "dls")
	ref, lazyPr := b.NewProber(), b.NewProber()
	peFree := make([]int64, acg.NumPEs())
	var rtl []ctg.TaskID
	var rows []row
	n := 0
	for b.Committed() < g.NumTasks() {
		rtl = b.AppendReady(rtl[:0])
		rows = rows[:0]
		for _, ti := range rtl {
			task := g.Task(ti)
			keys := ref.Row(ti, sched.RowByCost, func(int, int64, float64) float64 { return 0 })
			eager := eagerRow(t, ref, task, ti, sl[ti], meanExec[ti], peFree, func(k int, dl float64) {
				delta := meanExec[ti] - float64(task.ExecTime[k])
				lb := float64(keys.DRTBound(k))
				ub := sl[ti] - max(lb, float64(peFree[k])) + delta
				if sb := sl[ti] - lb + delta; sb < ub || ub < dl {
					t.Fatalf("%s task %d PE %d: bounds %v >= %v >= level %v do not hold", g.Name, ti, k, sb, ub, dl)
				}
			})
			lazy := scanRow(lazyPr, task, ti, sl[ti], meanExec[ti], peFree)
			if lazy.err != nil || math.Float64bits(lazy.dl) != math.Float64bits(eager.dl) || lazy.pe != eager.pe {
				t.Fatalf("%s task %d after %d commits: lazy (%v, PE %d, err %v), eager (%v, PE %d)",
					g.Name, ti, b.Committed(), lazy.dl, lazy.pe, lazy.err, eager.dl, eager.pe)
			}
			rows = append(rows, eager)
			n++
		}
		ti, pe, err := choose(rtl, rows)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Commit(ti, pe)
		if err != nil {
			t.Fatal(err)
		}
		peFree[pe] = max(peFree[pe], p.Finish)
	}
	want, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScheduleWith(ws, g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sched.Diff(want, got); d != "" {
		t.Fatalf("%s: eager vs lazy DLS: %s", g.Name, d)
	}
	return n
}
