package edf

import (
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

func rig(t *testing.T) *energy.ACG {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return acg
}

func het(t *testing.T, g *ctg.Graph, name string, ref int64, deadline int64) ctg.TaskID {
	t.Helper()
	id, err := g.AddTask(name,
		[]int64{ref / 2, ref * 7 / 10, ref, ref * 9 / 5},
		[]float64{float64(ref) * 2.0, float64(ref) * 0.91, float64(ref), float64(ref) * 0.63},
		deadline)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestEffectiveDeadlinesPropagation(t *testing.T) {
	g := ctg.New("prop")
	a := het(t, g, "a", 100, ctg.NoDeadline)
	b := het(t, g, "b", 100, ctg.NoDeadline)
	c := het(t, g, "c", 100, 1000)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)

	d, err := EffectiveDeadlines(g)
	if err != nil {
		t.Fatal(err)
	}
	// minExec(c) = 50, so dEff(b) = 950; minExec(b) = 50 -> dEff(a) = 900.
	if d[c] != 1000 || d[b] != 950 || d[a] != 900 {
		t.Errorf("effective deadlines = %v", d)
	}
}

func TestEffectiveDeadlinesMinOverBranches(t *testing.T) {
	g := ctg.New("branch")
	a := het(t, g, "a", 100, ctg.NoDeadline)
	b := het(t, g, "b", 100, 500)
	c := het(t, g, "c", 100, 2000)
	g.AddEdge(a, b, 0)
	g.AddEdge(a, c, 0)
	d, err := EffectiveDeadlines(g)
	if err != nil {
		t.Fatal(err)
	}
	if d[a] != 450 { // min(500-50, 2000-50)
		t.Errorf("dEff[a] = %d, want 450", d[a])
	}
}

func TestEffectiveDeadlinesUnconstrained(t *testing.T) {
	g := ctg.New("free")
	a := het(t, g, "a", 100, ctg.NoDeadline)
	d, err := EffectiveDeadlines(g)
	if err != nil {
		t.Fatal(err)
	}
	if d[a] != ctg.NoDeadline {
		t.Errorf("dEff = %d", d[a])
	}
}

func TestEDFPicksMostUrgent(t *testing.T) {
	// Two independent tasks, very different deadlines, on a platform
	// with a single dominant fast PE. EDF must start the urgent one
	// first on the fastest PE.
	acg := rig(t)
	g := ctg.New("urgent")
	lax := het(t, g, "lax", 100, 100000)
	urg := het(t, g, "urg", 100, 60)
	s, err := Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Feasible() {
		t.Fatalf("EDF missed a feasible deadline:\n%s", s.Gantt())
	}
	// The urgent task must not start after the lax one on the same PE.
	pu, pl := s.Tasks[urg], s.Tasks[lax]
	if pu.PE == pl.PE && pu.Start > pl.Start {
		t.Errorf("urgent task scheduled after lax one: %+v vs %+v", pu, pl)
	}
}

func TestEDFPerformanceGreedy(t *testing.T) {
	// A single unconstrained task: EDF picks the earliest-finish PE,
	// which is the CPU, regardless of its energy cost.
	acg := rig(t)
	g := ctg.New("greedy")
	id := het(t, g, "a", 100, ctg.NoDeadline)
	s, err := Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if pe := s.Tasks[id].PE; pe != 0 {
		t.Errorf("task on PE %d, want 0 (cpu-hp)", pe)
	}
}

func TestEDFSchedulesRandomGraphValidly(t *testing.T) {
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgff.Generate(tgff.Params{
		Name: "edf-rand", Seed: 11, NumTasks: 120, MaxInDegree: 3,
		LocalityWindow: 16, TaskTypes: 10, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 8192,
		ControlEdgeFraction: 0.1, DeadlineLaxity: 1.4, DeadlineFraction: 1,
		Platform: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid EDF schedule: %v", err)
	}
	if !s.Feasible() {
		t.Error("EDF missed deadlines at laxity 1.4")
	}
}

// TestEffectiveDeadlinesAllocs pins EffectiveDeadlines to TopoOrder's
// allocations plus the result slice: the backward pass reads out-edges
// in place instead of allocating a successor list per task.
func TestEffectiveDeadlinesAllocs(t *testing.T) {
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgff.Generate(tgff.Params{
		Name: "edf-allocs", Seed: 5, NumTasks: 300, MaxInDegree: 3,
		LocalityWindow: 16, TaskTypes: 10, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 8192,
		ControlEdgeFraction: 0.1, DeadlineLaxity: 1.4, DeadlineFraction: 1,
		Platform: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := testing.AllocsPerRun(20, func() { g.TopoOrder() })
	eff := testing.AllocsPerRun(20, func() { EffectiveDeadlines(g) })
	if eff != topo+1 {
		t.Fatalf("EffectiveDeadlines allocates %v per call, want TopoOrder's %v + 1", eff, topo)
	}
}

func TestEDFRejectsBadInput(t *testing.T) {
	acg := rig(t)
	g := ctg.New("bad")
	g.AddTask("a", []int64{1}, []float64{1}, ctg.NoDeadline) // 1 PE vs 4
	if _, err := Schedule(g, acg); err == nil {
		t.Error("PE mismatch accepted")
	}
}

func TestEffectiveDeadlinesCycleRejected(t *testing.T) {
	g := ctg.New("cyc")
	a, _ := g.AddTask("a", []int64{1}, []float64{1}, ctg.NoDeadline)
	b, _ := g.AddTask("b", []int64{1}, []float64{1}, ctg.NoDeadline)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 0)
	if _, err := EffectiveDeadlines(g); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestMinExecSkipsIncapablePEs(t *testing.T) {
	g := ctg.New("cap")
	id, err := g.AddTask("a", []int64{-1, 40, 60, -1}, []float64{0, 1, 1, 0}, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	if got := minExec(g.Task(id)); got != 40 {
		t.Errorf("minExec = %d, want 40", got)
	}
}

func TestEDFValidatesGraph(t *testing.T) {
	acg := rig(t)
	g := ctg.New("cyc")
	a := het(t, g, "a", 10, ctg.NoDeadline)
	b := het(t, g, "b", 10, ctg.NoDeadline)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 0)
	if _, err := Schedule(g, acg); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}
