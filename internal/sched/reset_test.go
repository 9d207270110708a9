package sched

import (
	"testing"

	"nocsched/internal/ctg"
)

// driveEF schedules every task on pr's builder with a deterministic
// earliest-finish policy: lowest ready task ID first, onto the PE that
// finishes it earliest (ties to the lower PE index). The prober and the
// ready slice are caller-owned so steady-state allocation tests can
// hoist them out of the measured loop.
func driveEF(tb testing.TB, pr *Prober, ready []ctg.TaskID) *Schedule {
	tb.Helper()
	b := pr.b
	g := b.Graph()
	npe := b.ACG().NumPEs()
	for b.Committed() < g.NumTasks() {
		ready = b.AppendReady(ready[:0])
		if len(ready) == 0 {
			tb.Fatal("no ready tasks before completion")
		}
		pick := ready[0]
		for _, t := range ready[1:] {
			if t < pick {
				pick = t
			}
		}
		bestPE, bestFinish := -1, int64(0)
		for k := 0; k < npe; k++ {
			if !g.Task(pick).RunnableOn(k) {
				continue
			}
			p, err := pr.Probe(pick, k)
			if err != nil {
				tb.Fatalf("probe task %d PE %d: %v", pick, k, err)
			}
			if bestPE < 0 || p.Finish < bestFinish {
				bestPE, bestFinish = k, p.Finish
			}
		}
		if bestPE < 0 {
			tb.Fatalf("task %d runnable nowhere", pick)
		}
		if _, err := b.Commit(pick, bestPE); err != nil {
			tb.Fatalf("commit task %d PE %d: %v", pick, bestPE, err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return s
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
// instances: the naive contention model and a stale algorithm label.
func TestResetRestoresDefaults(t *testing.T) {
	g, acg := proberRig(t, 21, 20)
	b := NewBuilder(g, acg, "first")
	b.SetContentionAware(false)
	b.Reset(g, acg)
	if !b.contention {
		t.Error("Reset kept the naive contention model")
	}
	b.SetAlgorithm("second")
	b.Reset(g, acg)
	var ready []ctg.TaskID
	if s := driveEF(t, b.NewProber(), ready); s.Algorithm != "second" {
		t.Errorf("schedule algorithm = %q, want %q", s.Algorithm, "second")
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

// TestWorkspacePrepareReuse pins Workspace.Prepare's two paths: the
// same ACG reuses builder and pool in place; a different ACG rebuilds
// both.
func TestWorkspacePrepareReuse(t *testing.T) {
	gA, acg := proberRig(t, 41, 30)
	gB, _ := proberRig(t, 42, 25)
	gC, acg2 := proberRig(t, 43, 20)

	ws := NewWorkspace(1, false)
	b1, p1 := ws.Prepare(gA, acg, "x")
	b2, p2 := ws.Prepare(gB, acg, "y")
	if b1 != b2 || p1 != p2 {
		t.Error("same-ACG Prepare rebuilt the builder or pool")
	}
	b3, p3 := ws.Prepare(gC, acg2, "z")
	if b3 == b2 || p3 == p2 {
		t.Error("platform-change Prepare reused the builder or pool")
	}
	var ready []ctg.TaskID
	if d := Diff(driveEF(t, NewBuilder(gC, acg2, "z").NewProber(), ready), driveEF(t, b3.NewProber(), ready)); d != "" {
		t.Errorf("platform-change workspace builder diverges from fresh:\n%s", d)
	}
}
