package eas

import (
	"errors"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/sched"
)

// buildMissSchedule constructs a deliberately bad schedule on the 2x2
// platform: two independent tasks on the same PE with the urgent one
// second, so it misses its deadline. LTS alone can fix it by swapping
// the order (energy-neutral).
func buildMissSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	acg := rig2x2(t)
	g := ctg.New("miss")
	slack := hetTask(t, g, "slack", 100, ctg.NoDeadline) // no deadline
	urgent := hetTask(t, g, "urgent", 100, 120)          // needs to go first

	b := sched.NewBuilder(g, acg, "eas")
	// Both on PE2 (risc, exec 100): slack at [0,100), urgent at
	// [100,200) -> urgent misses its 120 deadline.
	if _, err := b.Commit(slack, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(urgent, 2); err != nil {
		t.Fatal(err)
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DeadlineMisses()) != 1 {
		t.Fatalf("setup: expected 1 miss, got %d", len(s.DeadlineMisses()))
	}
	return s
}

func TestRepairFixesWithLocalSwap(t *testing.T) {
	s := buildMissSchedule(t)
	repaired, stats, err := Repair(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Ran {
		t.Error("repair did not run")
	}
	if len(repaired.DeadlineMisses()) != 0 {
		t.Fatalf("miss not repaired: %v\n%s", repaired.DeadlineMisses(), repaired.Gantt())
	}
	if stats.SwapsAccepted+stats.MigrationsAccepted == 0 {
		t.Error("repair succeeded without accepting any move")
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
	// LTS swaps on one PE never change energy; if only swaps were
	// used the energy must match exactly.
	if stats.MigrationsAccepted == 0 && repaired.TotalEnergy() != s.TotalEnergy() {
		t.Errorf("pure-swap repair changed energy: %v -> %v",
			s.TotalEnergy(), repaired.TotalEnergy())
	}
}

func TestRepairNoopOnFeasible(t *testing.T) {
	acg := rig2x2(t)
	g := ctg.New("fine")
	id := hetTask(t, g, "a", 100, 100000)
	b := sched.NewBuilder(g, acg, "eas")
	if _, err := b.Commit(id, 3); err != nil {
		t.Fatal(err)
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := Repair(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran || repaired != s {
		t.Error("repair touched a feasible schedule")
	}
}

// TestRepairMigrationNeeded: one PE is overloaded with two
// deadline-critical tasks; reordering cannot satisfy both, so GTM must
// move one elsewhere.
func TestRepairMigrationNeeded(t *testing.T) {
	acg := rig2x2(t)
	g := ctg.New("overload")
	// Two independent tasks, each 100 units on the RISC (PE2), both
	// with deadline 150: impossible on one PE, trivial on two.
	t1 := hetTask(t, g, "t1", 100, 150)
	t2 := hetTask(t, g, "t2", 100, 150)

	b := sched.NewBuilder(g, acg, "eas")
	if _, err := b.Commit(t1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(t2, 2); err != nil {
		t.Fatal(err)
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DeadlineMisses()) == 0 {
		t.Fatal("setup: expected misses")
	}
	repaired, stats, err := Repair(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired.DeadlineMisses()) != 0 {
		t.Fatalf("migration repair failed:\n%s", repaired.Gantt())
	}
	if stats.MigrationsAccepted == 0 {
		t.Error("expected at least one migration")
	}
	if err := repaired.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairRespectsBudget(t *testing.T) {
	s := buildMissSchedule(t)
	// Budget of 1 attempted move: repair can try exactly one candidate.
	_, stats, err := Repair(s, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MovesTried > 1 {
		t.Errorf("budget exceeded: %d moves tried", stats.MovesTried)
	}
}

func TestRepairNeverWorsens(t *testing.T) {
	// Even when repair cannot fully fix the schedule, the result must
	// be no worse than the input by the (misses, lateness) metric.
	acg := rig2x2(t)
	g := ctg.New("hopeless")
	// Impossible deadline: nothing helps, output must equal input
	// metric-wise.
	id := hetTask(t, g, "a", 1000, 10)
	b := sched.NewBuilder(g, acg, "eas")
	if _, err := b.Commit(id, 0); err != nil {
		t.Fatal(err)
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, err := Repair(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	mIn, mOut := metricOf(s), metricOf(repaired)
	if mOut.misses > mIn.misses || (mOut.misses == mIn.misses && mOut.lateness > mIn.lateness) {
		t.Errorf("repair worsened the schedule: %+v -> %+v", mIn, mOut)
	}
}

func TestRebuildPreservesAssignmentAndOrder(t *testing.T) {
	s := buildMissSchedule(t)
	l := layoutOf(s)
	re, err := rebuild(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), l, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("rebuilt schedule invalid: %v", err)
	}
	for i := range re.Tasks {
		if re.Tasks[i].PE != l.assign[i] {
			t.Errorf("task %d moved to PE %d", i, re.Tasks[i].PE)
		}
	}
	order := re.PEOrder()
	for pe := range order {
		if len(order[pe]) != len(l.order[pe]) {
			t.Fatalf("PE %d order length changed", pe)
		}
		for i := range order[pe] {
			if order[pe][i] != l.order[pe][i] {
				t.Errorf("PE %d execution order changed: %v vs %v", pe, order[pe], l.order[pe])
				break
			}
		}
	}
}

func TestRebuildDetectsOrderCycle(t *testing.T) {
	// a -> b with a and b on different PEs; force b before a's
	// PE-neighbor c, where c -> a. Construct: PE0 order [b], PE1 order
	// [a]; edge a->b means b cannot be head-committed before a — that
	// still works. A true cycle needs two PEs each holding the other's
	// prerequisite *behind* a blocker:
	// PE0: [y, x'], PE1: [x, y'] with x->x' and y->y' cross edges is
	// fine; cycle: PE0 [b1, a2], PE1 [b2, a1] with a1->b1 and a2->b2.
	acg := rig2x2(t)
	g := ctg.New("cycle")
	a1 := hetTask(t, g, "a1", 10, ctg.NoDeadline)
	b1 := hetTask(t, g, "b1", 10, ctg.NoDeadline)
	a2 := hetTask(t, g, "a2", 10, ctg.NoDeadline)
	b2 := hetTask(t, g, "b2", 10, ctg.NoDeadline)
	g.AddEdge(a1, b1, 0)
	g.AddEdge(a2, b2, 0)

	l := &layout{
		assign: make([]int, 4),
		order:  make([][]ctg.TaskID, 4),
	}
	l.assign[b1], l.assign[a2] = 0, 0
	l.assign[b2], l.assign[a1] = 1, 1
	l.order[0] = []ctg.TaskID{b1, a2} // b1 blocks a2, but b1 needs a1
	l.order[1] = []ctg.TaskID{b2, a1} // b2 blocks a1, but b2 needs a2
	if _, err := rebuild(sched.NewBuilder(g, acg, "eas"), l, false, nil); !errors.Is(err, sched.ErrOrderCycle) {
		t.Fatalf("ordering cycle not detected: err = %v", err)
	}
}
