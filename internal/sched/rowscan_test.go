package sched

import (
	"cmp"
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/verify/workloadgen"
)

// rowCorpora is the golden corpus (workloadgen.Golden) followed by the
// conformance corpus (workloadgen.Corpus(7)).
func rowCorpora(t testing.TB) []workloadgen.Workload {
	t.Helper()
	golden, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	conf, err := workloadgen.Corpus(7)
	if err != nil {
		t.Fatal(err)
	}
	return append(golden, conf...)
}

// eagerEarliestFinish is EarliestFinishPE by definition: probe every
// capable PE in index order, keep the strictly earliest finish.
func eagerEarliestFinish(t *testing.T, pr *Prober, task ctg.TaskID) ProbeResult {
	t.Helper()
	best := ProbeResult{PE: -1}
	for k := 0; k < pr.b.acg.NumPEs(); k++ {
		if !pr.b.g.Task(task).RunnableOn(k) {
			continue
		}
		p, err := pr.Probe(task, k)
		if err != nil {
			t.Fatal(err)
		}
		if best.PE < 0 || p.Finish < best.Finish {
			best = p
		}
	}
	return best
}

// checkRowKeys requires task's row to hold, on every capable PE, a
// communication key equal bit for bit to the probed CommEnergy and a
// data-ready bound no later than the probed DRT, and to list exactly the
// capable PEs in key order (ties to the lower PE).
func checkRowKeys(t *testing.T, pr *Prober, task ctg.TaskID) {
	t.Helper()
	g := pr.b.g
	key := func(k int, _ int64, comm float64) float64 { return g.Task(task).Energy[k] + comm }
	row := pr.Row(task, RowByCost, key)
	n := 0
	for k := 0; k < pr.b.acg.NumPEs(); k++ {
		if !g.Task(task).RunnableOn(k) {
			continue
		}
		n++
		p, err := pr.Probe(task, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(row.Comm(k)) != math.Float64bits(p.CommEnergy) {
			t.Fatalf("%s task %d PE %d: comm key %v, probed %v", g.Name, task, k, row.Comm(k), p.CommEnergy)
		}
		if row.DRTBound(k) > p.DRT {
			t.Fatalf("%s task %d PE %d: DRT bound %d above probed DRT %d", g.Name, task, k, row.DRTBound(k), p.DRT)
		}
	}
	if len(row.Order) != n {
		t.Fatalf("%s task %d: order lists %d PEs, %d capable", g.Name, task, len(row.Order), n)
	}
	for i := 1; i < len(row.Order); i++ {
		a, b := int(row.Order[i-1]), int(row.Order[i])
		ka, kb := key(a, 0, row.Comm(a)), key(b, 0, row.Comm(b))
		if c := cmp.Compare(ka, kb); c > 0 || (c == 0 && a > b) {
			t.Fatalf("%s task %d: order %v not by key", g.Name, task, row.Order)
		}
	}
}

// TestRowScanDifferential evaluates every ready row of every round over
// the golden and conformance corpora both ways: EarliestFinishPE's lazy
// scan must pick the eager scan's PE and finish, and every keyed PE's
// keys must agree with its probe (checkRowKeys). Tasks are checked
// before AppendReady gives the newly ready ones a slot (their rows are
// built in prober scratch) and again after; the committed task rotates
// through the ready list.
func TestRowScanDifferential(t *testing.T) {
	var rows int
	for _, w := range rowCorpora(t) {
		b := NewBuilder(w.Graph, w.ACG, "test")
		pr := b.NewProber()
		ref := b.NewProber()
		check := func(ready []ctg.TaskID) {
			for _, task := range ready {
				want := eagerEarliestFinish(t, ref, task)
				got, err := pr.EarliestFinishPE(task)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s task %d after %d commits: lazy %+v, eager %+v",
						w.Name, task, b.Committed(), got, want)
				}
				checkRowKeys(t, pr, task)
				rows++
			}
		}
		for round := 0; b.Committed() < w.Graph.NumTasks(); round++ {
			check(scanReady(b))
			ready := b.AppendReady(nil)
			check(ready)
			task := ready[round%len(ready)]
			best, err := pr.EarliestFinishPE(task)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Commit(task, best.PE); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d rows checked", rows)
}
