package dls

import (
	"math"
	"strings"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
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

func TestStaticLevels(t *testing.T) {
	g := ctg.New("sl")
	// Chain a(mean 100) -> b(mean 200) -> c(mean 50).
	mk := func(name string, mean int64) ctg.TaskID {
		id, err := g.AddTask(name, []int64{mean - 10, mean + 10}, []float64{1, 1}, ctg.NoDeadline)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := mk("a", 100)
	b := mk("b", 200)
	c := mk("c", 50)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	sl := staticLevels(g, order, meanExecTimes(g))
	want := []float64{350, 250, 50}
	for i, w := range want {
		if math.Abs(sl[i]-w) > 1e-9 {
			t.Errorf("SL[%d] = %v, want %v", i, sl[i], w)
		}
	}
}

// TestStaticLevelsCycleRejected: static levels need a topological
// order, so ScheduleWith rejects a cyclic graph before computing them.
func TestStaticLevelsCycleRejected(t *testing.T) {
	g := ctg.New("cyc")
	a, _ := g.AddTask("a", []int64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, ctg.NoDeadline)
	b, _ := g.AddTask("b", []int64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, ctg.NoDeadline)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 0)
	if _, err := Schedule(g, rig(t)); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic graph: err %v, want a cycle error", err)
	}
}

func TestDLSCriticalPathFirst(t *testing.T) {
	// Two ready chains: a long one and a short one, one fast PE. DLS
	// must give the fast PE to the long chain's head (largest static
	// level).
	acg := rig(t)
	g := ctg.New("prio")
	longHead := het(t, g, "long", 100, ctg.NoDeadline)
	longTail := het(t, g, "longTail", 900, ctg.NoDeadline)
	short := het(t, g, "short", 100, ctg.NoDeadline)
	g.AddEdge(longHead, longTail, 0)

	s, err := Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The long chain's head must start no later than the short task.
	if s.Tasks[longHead].Start > s.Tasks[short].Start {
		t.Errorf("long chain delayed: %+v vs %+v", s.Tasks[longHead], s.Tasks[short])
	}
}

func TestDLSHeterogeneousDelta(t *testing.T) {
	// A single task: Delta favors the PE where it runs fastest, so the
	// CPU (index 0) wins.
	acg := rig(t)
	g := ctg.New("delta")
	id := het(t, g, "only", 100, ctg.NoDeadline)
	s, err := Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks[id].PE != 0 {
		t.Errorf("task on PE %d, want 0", s.Tasks[id].PE)
	}
}

func TestDLSValidOnRandomGraphs(t *testing.T) {
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g, err := tgff.Generate(tgff.Params{
			Name: "dls", Seed: seed, NumTasks: 120, MaxInDegree: 3,
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
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		// DLS is the throughput-oriented scheduler: its makespan
		// should not exceed EDF's by much (they optimize the same
		// thing with different priorities); sanity-check it at least
		// produces a competitive makespan.
		ed, err := edf.Schedule(g, acg)
		if err != nil {
			t.Fatal(err)
		}
		if float64(s.Makespan()) > 1.5*float64(ed.Makespan()) {
			t.Errorf("seed %d: DLS makespan %d far above EDF %d",
				seed, s.Makespan(), ed.Makespan())
		}
	}
}

func TestDLSRejectsBadInput(t *testing.T) {
	acg := rig(t)
	g := ctg.New("bad")
	g.AddTask("a", []int64{1}, []float64{1}, ctg.NoDeadline)
	if _, err := Schedule(g, acg); err == nil {
		t.Error("PE mismatch accepted")
	}
}

// TestDLSCountsProbes: Schedule.Probes counts the F(i,k) probes DLS
// evaluated, one per ready task x capable PE per round, and neither it
// nor Schedule.ProbeReuses carries over when a builder is reused.
func TestDLSCountsProbes(t *testing.T) {
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	params := tgff.SuiteParams(tgff.CategoryI, 0, p)
	params.NumTasks = 80
	g, err := tgff.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(sched.Builder)
	seq, err := ScheduleWith(ws, g, acg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ScheduleWith(ws, g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Probes < int64(g.NumTasks()) {
		t.Errorf("DLS reported %d probes for %d tasks", seq.Probes, g.NumTasks())
	}
	if seq.Probes != again.Probes {
		t.Errorf("probe counts diverge: first solve %d, second %d", seq.Probes, again.Probes)
	}
	// Reused answers are part of Probes, and which probes the cache
	// serves depends on the commit history only.
	if seq.ProbeReuses <= 0 || seq.ProbeReuses >= seq.Probes {
		t.Errorf("DLS reused %d of %d probes, want some but not all", seq.ProbeReuses, seq.Probes)
	}
	if seq.ProbeReuses != again.ProbeReuses {
		t.Errorf("probe reuse counts diverge: first solve %d, second %d", seq.ProbeReuses, again.ProbeReuses)
	}
}
