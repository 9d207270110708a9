package sched

import (
	"fmt"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
)

// driveEF schedules every task on pr's builder with efPick. The
// prober and the ready slice are caller-owned so steady-state
// allocation tests can hoist them out of the measured loop.
func driveEF(tb testing.TB, pr *Prober, ready []ctg.TaskID) *Schedule {
	tb.Helper()
	b := pr.b
	for b.Committed() < b.Graph().NumTasks() {
		ready = b.AppendReady(ready[:0])
		if len(ready) == 0 {
			tb.Fatal("no ready tasks before completion")
		}
		t, k, err := efPick(b, pr, ready)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := b.Commit(t, k); err != nil {
			tb.Fatalf("commit task %d PE %d: %v", t, k, err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// efPick is a deterministic earliest-finish rule: the lowest ready task
// ID, onto the PE that finishes it earliest (ties to the lower PE
// index), found by probing every PE that can run it.
func efPick(b *Builder, pr *Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
	t := rtl[0]
	bestPE, bestFinish := -1, int64(0)
	for k := 0; k < b.ACG().NumPEs(); k++ {
		if !b.Graph().Task(t).RunnableOn(k) {
			continue
		}
		p, err := pr.Probe(t, k)
		if err != nil {
			return 0, 0, err
		}
		if bestPE < 0 || p.Finish < bestFinish {
			bestPE, bestFinish = k, p.Finish
		}
	}
	if bestPE < 0 {
		return 0, 0, fmt.Errorf("task %d runnable nowhere", t)
	}
	return t, bestPE, nil
}

// TestResetMatchesFresh is the builder-level half of the reuse
// determinism oracle: a builder that already scheduled one graph and is
// Reset onto another must produce a schedule bit-identical (Diff) to a
// fresh builder's — on the same-ACG fast path and on the
// platform-change rebuild path alike.
func TestResetMatchesFresh(t *testing.T) {
	gA, acg := proberRig(t, 11, 50)
	gB, _ := proberRig(t, 12, 35)
	gB2, acg2 := proberRig(t, 13, 40)

	var ready []ctg.TaskID
	refA := driveEF(t, NewBuilder(gA, acg, "test").NewProber(), ready)
	refB := driveEF(t, NewBuilder(gB, acg, "test").NewProber(), ready)
	refB2 := driveEF(t, NewBuilder(gB2, acg2, "test").NewProber(), ready)

	// Same-ACG reuse: schedule gA, reset onto gB, reset back onto gA.
	b := NewBuilder(gA, acg, "test")
	pr := b.NewProber()
	driveEF(t, pr, ready)
	b.Reset(gB, acg)
	if d := Diff(refB, driveEF(t, pr, ready)); d != "" {
		t.Errorf("reset onto gB diverges from fresh:\n%s", d)
	}
	b.Reset(gA, acg)
	if d := Diff(refA, driveEF(t, pr, ready)); d != "" {
		t.Errorf("reset back onto gA diverges from fresh:\n%s", d)
	}

	// Platform change: rebuild path. A prober is sized for its
	// builder's platform, so a new one follows the new ACG.
	b.Reset(gB2, acg2)
	if d := Diff(refB2, driveEF(t, b.NewProber(), ready)); d != "" {
		t.Errorf("reset onto new ACG diverges from fresh:\n%s", d)
	}
	// And back again onto the original platform.
	b.Reset(gA, acg)
	if d := Diff(refA, driveEF(t, b.NewProber(), ready)); d != "" {
		t.Errorf("reset back after platform change diverges from fresh:\n%s", d)
	}
}

// TestResetRestoresDefaults pins the state Reset must not leak between
// instances, the naive contention model, and the label ListSchedule
// must not: each run's schedule carries the algorithm it was run as.
func TestResetRestoresDefaults(t *testing.T) {
	g, acg := proberRig(t, 21, 20)
	b := NewBuilder(g, acg, "first")
	b.SetContentionAware(false)
	b.Reset(g, acg)
	if !b.contention {
		t.Error("Reset kept the naive contention model")
	}
	for _, name := range []string{"first", "second"} {
		s, err := b.ListSchedule(g, acg, name, nil, true, efPick)
		if err != nil {
			t.Fatal(err)
		}
		if s.Algorithm != name {
			t.Errorf("schedule algorithm = %q, want %q", s.Algorithm, name)
		}
	}
}

// TestResetSteadyStateAllocs bounds the steady-state allocation of the
// reuse loop: after warm-up, Reset + a full schedule allocates only the
// escaping Schedule shell (the struct and its two placement slices) —
// the tables, route tables, and probe and commit scratch are all reused.
func TestResetSteadyStateAllocs(t *testing.T) {
	g, acg := proberRig(t, 31, 40)
	b := NewBuilder(g, acg, "test")
	pr := b.NewProber()
	ready := make([]ctg.TaskID, 0, g.NumTasks())
	driveEF(t, pr, ready)
	b.Reset(g, acg) // warm-up: grows scratch to steady state
	driveEF(t, pr, ready)

	avg := testing.AllocsPerRun(10, func() {
		b.Reset(g, acg)
		driveEF(t, pr, ready)
	})
	// 3 = Schedule struct + Tasks + Transactions.
	if avg > 3 {
		t.Errorf("steady-state Reset+schedule allocates %.1f objects/run, want <= 3", avg)
	}
}

// TestListScheduleReuse pins the reusable handle: a zero Builder
// driven through ListSchedule on one ACG and across platform changes
// keeps one prober, zeroes its counters every run, and schedules each
// instance as a fresh builder and prober do (Diff), with the same
// probe count.
func TestListScheduleReuse(t *testing.T) {
	gA, acg := proberRig(t, 41, 30)
	gB, _ := proberRig(t, 42, 25)
	gC, acg2 := proberRig(t, 43, 20)

	var b Builder
	var pr *Prober
	var ready []ctg.TaskID
	for i, run := range []struct {
		g   *ctg.Graph
		acg *energy.ACG
	}{{gA, acg}, {gB, acg}, {gC, acg2}, {gA, acg}} {
		s, err := b.ListSchedule(run.g, run.acg, "ef", nil, true, efPick)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			pr = b.prober
		} else if b.prober != pr {
			t.Errorf("run %d replaced the builder's prober", i)
		}
		fresh := NewBuilder(run.g, run.acg, "ef").NewProber()
		if d := Diff(driveEF(t, fresh, ready), s); d != "" {
			t.Errorf("run %d diverges from a fresh builder:\n%s", i, d)
		}
		if s.Probes != fresh.Work().Probes || s.ProbeReuses != 0 {
			t.Errorf("run %d counted %d probes, %d reuses; a fresh prober counts %d, 0",
				i, s.Probes, s.ProbeReuses, fresh.Work().Probes)
		}
	}
}
