package eas

import (
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
)

// TestBudgetFig2 reproduces the paper's Fig. 2 worked example: a chain
// t1 -> t2 -> t3 with mean execution times 300/200/400, weights
// 100/200/100 and d(t3) = 1300 must yield budgeted deadlines
// 400/800/1300.
func TestBudgetFig2(t *testing.T) {
	g := ctg.New("fig2")
	// Arrays engineered so that the means and VAR_e*VAR_r weights come
	// out as in the figure. With two PEs, mean m and weight w need
	// times m-a, m+a and energies e-b, e+b with a^2*b^2 = w.
	// t1: times 290/310 (mean 300, VAR_r=100), energies x-1/x+1 (VAR_e=1) -> W=100.
	// t2: times 190/210 (VAR_r=100), energies y-sqrt2/y+sqrt2 (VAR_e=2) -> W=200.
	// t3: times 390/410 (VAR_r=100), energies z-1/z+1 (VAR_e=1) -> W=100.
	sqrt2 := 1.4142135623730951
	t1, err := g.AddTask("t1", []int64{290, 310}, []float64{9, 11}, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.AddTask("t2", []int64{190, 210}, []float64{10 - sqrt2, 10 + sqrt2}, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := g.AddTask("t3", []int64{390, 410}, []float64{9, 11}, 1300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(t1, t2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(t2, t3, 0); err != nil {
		t.Fatal(err)
	}

	b, err := ComputeBudget(g, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[ctg.TaskID]int64{t1: 400, t2: 800, t3: 1300} {
		if b.BD[i] != want {
			t.Errorf("BD[%d] = %d, want %d (mean=%v weight=%v)", i, b.BD[i], want, b.Mean[i], b.Weight[i])
		}
	}
}

// TestScheduleSmoke runs EAS and checks the schedule validates.
func TestScheduleSmoke(t *testing.T) {
	g := ctg.New("smoke")
	mk := func(name string, base int64, deadline int64) ctg.TaskID {
		// Heterogeneous 2x2 platform: 4 PEs.
		times := []int64{base / 2, base * 7 / 10, base, base * 9 / 5}
		en := []float64{float64(base) * 2, float64(base) * 0.91, float64(base), float64(base) * 0.63}
		id, err := g.AddTask(name, times, en, deadline)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := mk("a", 100, ctg.NoDeadline)
	b1 := mk("b1", 200, ctg.NoDeadline)
	b2 := mk("b2", 150, ctg.NoDeadline)
	c := mk("c", 120, 2000)
	for _, e := range [][2]ctg.TaskID{{a, b1}, {a, b2}, {b1, c}, {b2, c}} {
		if _, err := g.AddEdge(e[0], e[1], 4096); err != nil {
			t.Fatal(err)
		}
	}
	p, err := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 64)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(g, acg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v\n%s", err, res.Schedule.Gantt())
	}
	if !res.Schedule.Feasible() {
		t.Errorf("deadline missed:\n%s", res.Schedule.Gantt())
	}
	if res.Schedule.TotalEnergy() <= 0 {
		t.Errorf("non-positive energy %v", res.Schedule.TotalEnergy())
	}
}
