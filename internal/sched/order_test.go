package sched

import (
	"errors"
	"slices"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
)

// orderRig schedules a proberRig graph earliest-finish-first and returns
// the graph, its ACG and the schedule's per-PE layout.
func orderRig(t *testing.T, seed int64, tasks int) (*ctg.Graph, *energy.ACG, [][]ctg.TaskID) {
	t.Helper()
	g, acg := proberRig(t, seed, tasks)
	s := driveEF(t, NewBuilder(g, acg, "test").NewProber(), nil)
	return g, acg, s.PEOrder()
}

// retimeFresh re-times order on a new builder and returns it.
func retimeFresh(g *ctg.Graph, acg *energy.ACG, order [][]ctg.TaskID, contention bool) (*Builder, error) {
	b := NewBuilder(g, acg, "test")
	b.SetContentionAware(contention)
	return b, b.CommitOrder(order, nil)
}

// TestCommitOrderResume rewinds a completed CommitOrder run to every
// prefix length, under the exact and the naive contention model, and
// resumes it two ways: directly, and after probing the rewound state.
// Each must finish bit-identical to the uninterrupted run, and every
// probe must match a fresh builder stopped at the same prefix.
func TestCommitOrderResume(t *testing.T) {
	g, acg, order := orderRig(t, 21, 40)
	n := g.NumTasks()
	for _, contention := range []bool{true, false} {
		rb, err := retimeFresh(g, acg, order, contention)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := rb.Finish()
		refLog := slices.Clone(rb.log)
		b := NewBuilder(g, acg, "test")
		b.SetContentionAware(contention)
		if err := b.CommitOrder(order, nil); err != nil {
			t.Fatal(err)
		}
		finish := func(what string, k int) {
			t.Helper()
			if err := b.CommitOrder(order, nil); err != nil {
				t.Fatalf("contention=%v %s %d: %v", contention, what, k, err)
			}
			got, _ := b.Finish()
			if d := Diff(ref, got); d != "" || !slices.Equal(b.log, refLog) {
				t.Fatalf("contention=%v %s %d: resumed run diverges (log equal %v):\n%s",
					contention, what, k, slices.Equal(b.log, refLog), d)
			}
		}
		for k := n; k >= 0; k-- {
			b.Rewind(k)
			if b.Committed() != k {
				t.Fatalf("Rewind(%d) left %d commits", k, b.Committed())
			}
			finish("rewind", k)
		}
		// Probes after a rewind see exactly the rewound tables.
		pr := b.NewProber()
		for _, k := range []int{n - 1, n / 2, 1} {
			b.Rewind(k)
			fresh := NewBuilder(g, acg, "test")
			fresh.SetContentionAware(contention)
			stops := 0
			fresh.CommitOrder(order, func(ctg.TaskID) bool { stops++; return stops == k })
			fpr := fresh.NewProber()
			for _, task := range fresh.AppendReady(nil) {
				for pe := 0; pe < acg.NumPEs(); pe++ {
					if !g.Task(task).RunnableOn(pe) {
						continue
					}
					want, _ := fpr.Probe(task, pe)
					if got, _ := pr.ProbeCached(task, pe); got != want {
						t.Fatalf("contention=%v k=%d: probe of task %d on PE %d after Rewind = %+v, fresh %+v",
							contention, k, task, pe, got, want)
					}
				}
			}
			finish("probe", k)
		}
	}
}

// TestCommitOrderRejectsForeignPrefix: a builder whose committed task
// is not the head of its PE's queue cannot be resumed from.
func TestCommitOrderRejectsForeignPrefix(t *testing.T) {
	g, acg, order := orderRig(t, 22, 20)
	b := NewBuilder(g, acg, "test")
	for pe, q := range order {
		if len(q) == 0 || !b.Ready(q[0]) {
			continue
		}
		for other := range order {
			if other == pe || !g.Task(q[0]).RunnableOn(other) {
				continue
			}
			if _, err := b.Commit(q[0], other); err != nil {
				t.Fatal(err)
			}
			if err := b.CommitOrder(order, nil); err == nil || errors.Is(err, ErrOrderCycle) {
				t.Fatalf("resume after committing task %d on PE %d, queued on %d: error %v", q[0], other, pe, err)
			}
			return
		}
	}
	t.Fatal("no ready queue head runnable on another PE")
}

// TestRewindFloor: commits listed by AppendReady since cannot be undone.
func TestRewindFloor(t *testing.T) {
	g, acg, order := orderRig(t, 23, 20)
	b := NewBuilder(g, acg, "test")
	stops := 0
	b.CommitOrder(order, func(ctg.TaskID) bool { stops++; return stops == 5 })
	b.AppendReady(nil)
	b.Rewind(5)
	defer func() {
		if recover() == nil {
			t.Error("Rewind below the last AppendReady did not panic")
		}
	}()
	b.Rewind(4)
}

// TestDivergenceMatchesRebuild checks the divergence scan against full
// rebuilds of every same-PE swap and of migrations of every task to
// every other PE: the scan must return the first step at which the
// rebuild commits another task, or the same task on another PE.
func TestDivergenceMatchesRebuild(t *testing.T) {
	g, acg, order := orderRig(t, 24, 30)
	inc := NewBuilder(g, acg, "test")
	if err := inc.CommitOrder(order, nil); err != nil {
		t.Fatal(err)
	}
	var tr OrderTrace
	tr.Record(inc)
	check := func(cand [][]ctg.TaskID, changed ...int) {
		t.Helper()
		b, err := retimeFresh(g, acg, cand, true)
		log := b.log
		first := 0
		for first < len(log) && log[first] == tr.seq[first] &&
			b.TaskPlacement(log[first]).PE == tr.pe[log[first]] {
			first++
		}
		if d := tr.Divergence(cand, changed); d != first {
			t.Fatalf("changed PEs %v: Divergence = %d, rebuild (error %v) leaves the trace at %d", changed, d, err, first)
		}
	}
	clone := func() [][]ctg.TaskID {
		cp := make([][]ctg.TaskID, len(order))
		for i, q := range order {
			cp[i] = slices.Clone(q)
		}
		return cp
	}
	swaps, moves := 0, 0
	for pe, q := range order {
		for i := range q {
			for j := i + 1; j < len(q); j++ {
				cand := clone()
				cand[pe][i], cand[pe][j] = cand[pe][j], cand[pe][i]
				check(cand, pe)
				swaps++
			}
			for dst := range order {
				if dst == pe || !g.Task(q[i]).RunnableOn(dst) {
					continue
				}
				cand := clone()
				cand[pe] = slices.Delete(cand[pe], i, i+1)
				cand[dst] = slices.Insert(cand[dst], len(cand[dst])/2, q[i])
				check(cand, pe, dst)
				moves++
			}
		}
	}
	t.Logf("%d swaps and %d migrations checked", swaps, moves)
}
