package eas

import (
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/sched"
)

// buildWastefulSchedule places two independent tasks with loose
// deadlines on the most expensive PE; refinement should walk them to
// cheaper tiles.
func buildWastefulSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	acg := rig2x2(t)
	g := ctg.New("wasteful")
	a := hetTask(t, g, "a", 100, 100000)
	b := hetTask(t, g, "b", 100, 100000)
	bld := sched.NewBuilder(g, acg, "eas")
	if _, err := bld.Commit(a, 0); err != nil { // cpu-hp: expensive
		t.Fatal(err)
	}
	if _, err := bld.Commit(b, 0); err != nil {
		t.Fatal(err)
	}
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRefineEnergyLowersEnergy(t *testing.T) {
	s := buildWastefulSchedule(t)
	refined, stats, err := RefineEnergy(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MovesAccepted == 0 {
		t.Fatal("no refinement move accepted on an obviously wasteful schedule")
	}
	if refined.TotalEnergy() >= s.TotalEnergy() {
		t.Errorf("energy not reduced: %.1f -> %.1f", s.TotalEnergy(), refined.TotalEnergy())
	}
	if err := refined.Validate(); err != nil {
		t.Fatalf("refined schedule invalid: %v", err)
	}
	if len(refined.DeadlineMisses()) != 0 {
		t.Error("refinement introduced deadline misses")
	}
	// The cheapest PE for these tasks is the ARM (index 3).
	for i := range refined.Tasks {
		if refined.Tasks[i].PE == 0 {
			t.Errorf("task %d still on the expensive CPU", i)
		}
	}
}

func TestRefineEnergyPreservesFeasibility(t *testing.T) {
	// Tight deadlines: both tasks need the CPU; refinement must not
	// move them even though cheaper PEs exist.
	acg := rig2x2(t)
	g := ctg.New("tight")
	a := hetTask(t, g, "a", 100, 51)
	b := hetTask(t, g, "b", 100, 102)
	bld := sched.NewBuilder(g, acg, "eas")
	if _, err := bld.Commit(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := bld.Commit(b, 0); err != nil {
		t.Fatal(err)
	}
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DeadlineMisses()) != 0 {
		t.Fatalf("setup: schedule misses deadlines:\n%s", s.Gantt())
	}
	refined, _, err := RefineEnergy(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined.DeadlineMisses()) != 0 {
		t.Errorf("refinement broke feasibility:\n%s", refined.Gantt())
	}
}

func TestRefineEnergyRespectsBudget(t *testing.T) {
	s := buildWastefulSchedule(t)
	_, stats, err := RefineEnergy(s, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MovesTried > 1 {
		t.Errorf("budget exceeded: %d", stats.MovesTried)
	}
}

func TestFallbackPassActivates(t *testing.T) {
	// An instance where the level scheduler's placement misses a
	// deadline that the deadline-first fallback meets: verify the
	// driver returns a feasible schedule and reports refinement stats.
	// The Fig. 7 ratio-1.8 integrated workload is exactly such a case;
	// reuse a scaled MSB-like structure via a chain with heavy
	// communication.
	acg := rig2x2(t)
	g := ctg.New("fallback")
	// Chain of four heavy-communication stages with a deadline that
	// requires fast PEs and co-location.
	prev := ctg.TaskID(-1)
	for i := 0; i < 4; i++ {
		deadline := ctg.NoDeadline
		if i == 3 {
			deadline = 900
		}
		id := hetTask(t, g, "s", 300, deadline)
		if prev >= 0 {
			if _, err := g.AddEdge(prev, id, 64*1024); err != nil { // 256 cycles on the NoC
				t.Fatal(err)
			}
		}
		prev = id
	}
	res, err := Schedule(g, acg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Feasible() {
		t.Fatalf("driver left a feasible instance infeasible:\n%s", res.Schedule.Gantt())
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// topoOrder returns g's topological order, failing the test on a cycle.
func topoOrder(tb testing.TB, g *ctg.Graph) []ctg.TaskID {
	tb.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	return order
}

func TestDeadlineFirstSchedule(t *testing.T) {
	acg := rig2x2(t)
	g := ctg.New("df")
	hetTask(t, g, "a", 100, 500)
	hetTask(t, g, "b", 100, 200)
	s, err := deadlineFirstSchedule(new(sched.Builder), g, topoOrder(t, g), acg, "eas", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Feasible() {
		t.Errorf("deadline-first missed feasible deadlines:\n%s", s.Gantt())
	}
}
