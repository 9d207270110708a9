package eas

import (
	"testing"

	"nocsched/internal/dls"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
)

// TestComputeBudgetSteadyStateAllocs: with its scratch pooled and the
// topological order computed once per solve, a steady-state Step 1 pass
// allocates only the returned Budget (the struct and its three arrays),
// so the count does not grow with the graph.
func TestComputeBudgetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	allocs := func(tasks int) float64 {
		gs, acg := looseGraphs(t, tasks, 1)
		order, err := gs[0].TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		bw := acg.Platform().LinkBandwidth
		for _, bw := range []int64{0, bw} {
			if _, err := computeBudget(gs[0], order, nil, 1, bw); err != nil { // warm-up
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() { computeBudget(gs[0], order, nil, 0.5, bw) })
	}
	big, small := allocs(500), allocs(100)
	t.Logf("computeBudget: %.0f objects/run at 500 tasks, %.0f at 100", big, small)
	if big > 4 {
		t.Errorf("500 tasks: computeBudget allocates %.0f objects/run, want <= 4", big)
	}
	if small != big {
		t.Errorf("computeBudget allocates %.0f objects/run at 100 tasks and %.0f at 500, want the same", small, big)
	}
}

// TestLooseSolveSteadyStateAllocs pins a steady-state EAS solve of a
// batch-loose-shaped instance on a reused one-worker builder. At the
// whole-graph Step 1 it made 1,542 allocations, 1,519 of them Step 1's;
// 27 remained, 21 once the solve computed its topological order once
// instead of in Validate and again in every Step 1 pass, and 11 since
// Step 2 keeps its rows in pooled per-task scratch.
func TestLooseSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	gs, acg := looseGraphs(t, 500, 1)
	ws := new(sched.Builder)
	solve := func() {
		if _, err := ScheduleWith(ws, gs[0], acg, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm-up: grows the builder's tables and the Step 1 scratch
	avg := testing.AllocsPerRun(20, solve)
	t.Logf("ScheduleWith: %.0f objects/run", avg)
	if avg > 11 {
		t.Errorf("ScheduleWith allocates %.0f objects/run, want <= 11", avg)
	}
}

// BenchmarkComputeBudget times Step 1's first pass alone on a
// batch-loose-shaped graph.
func BenchmarkComputeBudget(b *testing.B) {
	gs, _ := looseGraphs(b, 500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeBudget(gs[0], nil, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEASLooseSolve times whole EAS solves of the nocbench
// batch-loose shape: ten 500-task Category I graphs at laxity 3.0, one
// worker, one reused builder. probes/op counts every F(i,k) answer over
// all passes, evaluated/op only those the probe cache could not serve,
// settled/op the Step 2 membership tests the finish bound settled
// without a probe, and rows/op the Step 2 rows scanned by the pass that
// produced the schedule.
func BenchmarkEASLooseSolve(b *testing.B) {
	gs, acg := looseGraphs(b, 500, 10)
	ws := new(sched.Builder)
	var probes, evaluated, settled, rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ScheduleWith(ws, gs[i%len(gs)], acg, Options{})
		if err != nil {
			b.Fatal(err)
		}
		probes += r.Probes
		evaluated += r.Probes - r.ProbeReuses
		settled += r.BoundSettled
		rows += r.Schedule.RowScans
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkEASTightSolve times whole EAS solves of the nocbench
// batch-tight shape: ten 30-task Category II graphs at laxity 0.95 on
// the 4x4 mesh, one worker, one reused builder.
func BenchmarkEASTightSolve(b *testing.B) {
	gs, acg := shapeGraphs(b, tgff.CategoryII, 30, 0.95, 10)
	ws := new(sched.Builder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleWith(ws, gs[i%len(gs)], acg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDLSSolveSteadyStateAllocs pins a steady-state DLS solve on a
// reused one-worker builder: its per-solve arrays and the Schedule
// shell, and nothing per round, so the count does not grow with the
// graph. The per-task rows the solve carries across rounds come from a
// pool.
func TestDLSSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	allocs := func(tasks int) float64 {
		gs, acg := looseGraphs(t, tasks, 1)
		ws := new(sched.Builder)
		solve := func() {
			if _, err := dls.ScheduleWith(ws, gs[0], acg); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm-up: grows the builder's tables and the row pool
		return testing.AllocsPerRun(20, solve)
	}
	big, small := allocs(300), allocs(100)
	t.Logf("dls.ScheduleWith: %.0f objects/run at 300 tasks, %.0f at 100", big, small)
	if big > 9 {
		t.Errorf("300 tasks: dls.ScheduleWith allocates %.0f objects/run, want <= 9", big)
	}
	if small != big {
		t.Errorf("dls.ScheduleWith allocates %.0f objects/run at 100 tasks and %.0f at 300, want the same", small, big)
	}
}
