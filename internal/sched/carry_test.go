package sched

import (
	"testing"

	"nocsched/internal/ctg"
)

// TestCarryRecord walks one ready task's row record through every way
// Carry must refuse it: no scan yet, a scan that probed the moved PE, a
// refused row asked again unscanned, a plain Probe in the scan, a write
// to a probed PE's table, a contention-model change, and a Reset after a
// row that probed nothing. Between them, a row nothing has touched is
// carried, and the prober counts exactly those.
func TestCarryRecord(t *testing.T) {
	in := cacheInputs(t, 1)
	g, acg := in[len(in)-1].g, in[len(in)-1].acg
	b := NewBuilder(g, acg, "carry")
	pr := b.NewProber()
	key := func(_ int, _ int64, comm float64) float64 { return comm }
	var first int
	scan := func(task ctg.TaskID, probe func(ctg.TaskID, int) (ProbeResult, error)) {
		order := pr.Row(task, RowByCost, key).Order
		first = int(order[0])
		if probe == nil {
			return // a row decided from its keys alone
		}
		for _, k := range order {
			if _, err := probe(task, int(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	carried := int64(0)
	want := func(step string, task ctg.TaskID, moved int, ok bool) {
		t.Helper()
		if got := pr.Carry(task, moved); got != ok {
			t.Fatalf("%s: Carry(%d, %d) = %v, want %v", step, task, moved, got, ok)
		}
		if ok {
			carried++
		}
	}

	rtl := b.AppendReady(nil)
	for len(rtl) < 2 {
		// Commit the lone ready task on a PE it can run on until the
		// list holds two.
		k := 0
		for !g.Task(rtl[0]).RunnableOn(k) {
			k++
		}
		if _, err := b.Commit(rtl[0], k); err != nil {
			t.Fatal(err)
		}
		rtl = b.AppendReady(rtl[:0])
	}
	task := rtl[0]
	want("before any scan", task, -1, false)
	scan(task, pr.ProbeCached)
	want("nothing written", task, -1, true)
	want("nothing written, again", task, -1, true)
	want("probed the moved PE", task, first, false)
	want("refused and not scanned again", task, -1, false)
	scan(task, pr.Probe)
	want("scanned by plain probes", task, -1, false)

	scan(task, pr.ProbeCached)
	other := ctg.TaskID(-1)
	for _, o := range rtl[1:] {
		if g.Task(o).RunnableOn(first) && g.Task(o).ExecTime[first] > 0 {
			other = o
			break
		}
	}
	if other < 0 {
		t.Fatalf("no ready task besides %d runs on PE %d", task, first)
	}
	if _, err := b.Commit(other, first); err != nil {
		t.Fatal(err)
	}
	b.AppendReady(nil)
	want("a probed PE's table written", task, -1, false)

	scan(task, pr.ProbeCached)
	want("rescanned", task, -1, true)
	b.SetContentionAware(true)
	want("contention model set", task, -1, false)

	// A source task is ready, in the same slot, after every Reset.
	b.Reset(g, acg)
	src := b.AppendReady(nil)[0]
	scan(src, nil)
	want("no probes read", src, -1, true)
	b.Reset(g, acg)
	b.AppendReady(nil)
	want("after Reset", src, -1, false)

	if pr.work.RowsCarried != carried {
		t.Errorf("%d rows counted as carried, want %d", pr.work.RowsCarried, carried)
	}
	if pr.work.RowScans != 5 {
		t.Errorf("%d rows counted as scanned, want 5", pr.work.RowScans)
	}
}
