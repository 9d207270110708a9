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
		pool := NewProbePool(b, 1)
		ref := b.NewProber()
		check := func(ready []ctg.TaskID) {
			for _, task := range ready {
				want := eagerEarliestFinish(t, ref, task)
				got, err := pool.EarliestFinishPE(task)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s task %d after %d commits: lazy %+v, eager %+v",
						w.Name, task, b.Committed(), got, want)
				}
				checkRowKeys(t, pool.probers[0], task)
				rows++
			}
		}
		for round := 0; b.Committed() < w.Graph.NumTasks(); round++ {
			check(scanReady(b))
			ready := b.ReadyTasks()
			check(ready)
			task := ready[round%len(ready)]
			best, err := pool.EarliestFinishPE(task)
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

// scanAll scans task's whole row in its kind's order through
// ProbeCached and returns the earliest finish, ties to the lower PE.
func scanAll(pr *Prober, task ctg.TaskID, kind RowKind) (ProbeResult, error) {
	g := pr.b.g
	row := pr.Row(task, kind, func(k int, drtLB int64, comm float64) float64 {
		return g.Task(task).Energy[k] + comm - float64(drtLB)
	})
	best := ProbeResult{PE: -1}
	for _, k := range row.Order {
		p, err := pr.ProbeCached(task, int(k))
		if err != nil {
			return p, err
		}
		if best.PE < 0 || p.Finish < best.Finish || (p.Finish == best.Finish && p.PE < best.PE) {
			best = p
		}
	}
	return best, nil
}

// TestRowScanParallelDifferential scans every ready row of every round
// from four workers at once, with the sequential floor off, and requires
// the answers a sequential scan gives. Rounds alternate the row kind, so
// rows are re-sorted inside the parallel runs. Under -race this proves
// that a row's order and cached probes are written only by the worker
// scanning it.
func TestRowScanParallelDifferential(t *testing.T) {
	for _, w := range rowCorpora(t) {
		b := NewBuilder(w.Graph, w.ACG, "test")
		pool := NewProbePool(b, 4)
		pool.seqFloor = 0
		seq := b.NewProber()
		var got []ProbeResult
		for round := 0; b.Committed() < w.Graph.NumTasks(); round++ {
			kind := RowByCost
			if round%2 == 1 {
				kind = RowByLevel
			}
			ready := b.ReadyTasks()
			got = append(got[:0], make([]ProbeResult, len(ready))...)
			pool.Run(len(ready), func(pr *Prober, i int) {
				var err error
				if got[i], err = scanAll(pr, ready[i], kind); err != nil {
					t.Error(err)
				}
			})
			for i, task := range ready {
				want, err := scanAll(seq, task, kind)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%s task %d after %d commits: parallel %+v, sequential %+v",
						w.Name, task, b.Committed(), got[i], want)
				}
			}
			i := round % len(ready)
			if _, err := b.Commit(ready[i], got[i].PE); err != nil {
				t.Fatal(err)
			}
		}
	}
}
