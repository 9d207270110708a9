package dls

import (
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
	"nocsched/internal/verify/workloadgen"
)

// eagerRow is the DLS row by definition: the dynamic level of ready
// task t on every capable PE in index order, the first largest kept.
// check sees every PE's level.
func eagerRow(t testing.TB, pr *sched.Prober, task *ctg.Task, ti ctg.TaskID, sl, mean float64,
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
// corpora with every row of every round evaluated eagerly, by a fresh
// scanRow and as ScheduleWith takes it (carried where Carry vouches for
// it): all three must find the same level, bit for bit, on the same PE,
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
	ref, ws := sched.NewWorkspace(1, false), sched.NewWorkspace(1, false)
	n, carried := 0, 0
	for _, w := range append(golden, conf...) {
		rows, c := checkRows(t, ref, ws, w.Graph, w.ACG)
		n, carried = n+rows, carried+c
	}
	t.Logf("%d rows compared, %d of them carried", n, carried)
}

// TestCarriedRowDifferential holds carried rows to fresh scans where
// they are plentiful: 120-task Category I graphs on the 4x4 mesh, as
// generated and with every third task's execution time zeroed. A
// zero-time commit leaves its PE's table unwritten but can still raise
// the PE's finish time TF, which only Carry's moved argument catches.
// One reference workspace is reused across every graph, so a carried
// row that outlived its solve would be caught too.
func TestCarriedRowDifferential(t *testing.T) {
	platform, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	ref, ws := sched.NewWorkspace(1, false), sched.NewWorkspace(1, false)
	n, carried := 0, 0
	for i := 0; i < 3; i++ {
		p := tgff.SuiteParams(tgff.CategoryI, i, platform)
		p.NumTasks = 120
		g, err := tgff.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		zero, err := workloadgen.ZeroEvery(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*ctg.Graph{g, zero} {
			rows, c := checkRows(t, ref, ws, g, acg)
			n, carried = n+rows, carried+c
		}
	}
	t.Logf("%d rows compared, %d of them carried", n, carried)
	if carried == 0 {
		t.Fatal("no row was carried")
	}
}

// checkRows is one TestLazyRowDifferential instance, solved by the
// always-re-scan reference loop on ref, a workspace the caller reuses
// across instances. Every round it takes each ready task's row eagerly
// (eagerRow), by a fresh scanRow on a second prober, and as ScheduleWith
// does on ref's own prober: carried where Carry vouches for it, scanned
// otherwise. The rows must agree bit for bit; rounds commit what the
// eager rows choose, and the result must be identical to ScheduleWith's
// on ws. It returns the rows compared and how many were carried.
func checkRows(t testing.TB, ref, ws *sched.Workspace, g *ctg.Graph, acg *energy.ACG) (int, int) {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	meanExec := meanExecTimes(g)
	sl := staticLevels(g, order, meanExec)
	peFree := make([]int64, acg.NumPEs())
	ub := make([]float64, acg.NumPEs()) // scanRow's level-bound scratch
	eager, kept := make([]row, g.NumTasks()), make([]row, g.NumTasks())
	var eagerPr, freshPr *sched.Prober
	last := ctg.TaskID(-1)
	n, carried := 0, 0
	want, err := ref.ListSchedule(g, acg, "dls", nil, true,
		func(b *sched.Builder, pr *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
			if eagerPr == nil {
				eagerPr, freshPr = b.NewProber(), b.NewProber()
			}
			moved := -1
			if last >= 0 {
				p := b.TaskPlacement(last)
				peFree[p.PE] = max(peFree[p.PE], p.Finish)
				moved = p.PE
			}
			for _, ti := range rtl {
				task := g.Task(ti)
				keys := eagerPr.Row(ti, sched.RowByCost, func(int, int64, float64) float64 { return 0 })
				eager[ti] = eagerRow(t, eagerPr, task, ti, sl[ti], meanExec[ti], peFree, func(k int, dl float64) {
					delta := meanExec[ti] - float64(task.ExecTime[k])
					lb := float64(keys.DRTBound(k))
					ub := sl[ti] - max(lb, float64(peFree[k])) + delta
					if sb := sl[ti] - lb + delta; sb < ub || ub < dl {
						t.Fatalf("%s task %d PE %d: bounds %v >= %v >= level %v do not hold", g.Name, ti, k, sb, ub, dl)
					}
				})
				lazy := scanRow(freshPr, task, ti, sl[ti], meanExec[ti], peFree, ub)
				if lazy.err != nil || !sameRow(lazy, eager[ti]) {
					t.Fatalf("%s task %d after %d commits: lazy (%v, PE %d, err %v), eager (%v, PE %d)",
						g.Name, ti, b.Committed(), lazy.dl, lazy.pe, lazy.err, eager[ti].dl, eager[ti].pe)
				}
				c := pr.Carry(ti, moved)
				if c {
					carried++
				} else {
					kept[ti] = scanRow(pr, task, ti, sl[ti], meanExec[ti], peFree, ub)
				}
				if !sameRow(kept[ti], lazy) {
					t.Fatalf("%s task %d after %d commits (carried %v): row (%v, PE %d, err %v), fresh scan (%v, PE %d)",
						g.Name, ti, b.Committed(), c, kept[ti].dl, kept[ti].pe, kept[ti].err, lazy.dl, lazy.pe)
				}
				n++
			}
			ti, pe, err := choose(rtl, eager)
			last = ti
			return ti, pe, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if want.RowsCarried != int64(carried) {
		t.Errorf("%s: schedule counts %d carried rows, the reference loop %d", g.Name, want.RowsCarried, carried)
	}
	got, err := ScheduleWith(ws, g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sched.Diff(want, got); d != "" {
		t.Fatalf("%s: eager vs lazy DLS: %s", g.Name, d)
	}
	return n, carried
}

// sameRow reports whether two rows hold the same level, bit for bit, on
// the same PE, both without an error.
func sameRow(a, b row) bool {
	return a.err == nil && b.err == nil && a.pe == b.pe && math.Float64bits(a.dl) == math.Float64bits(b.dl)
}
