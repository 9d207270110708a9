package nocsched_test

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Sec. 6), plus the ablation benches DESIGN.md
// calls out. Each benchmark regenerates its experiment end to end —
// workload generation, EAS-base/EAS/EDF scheduling, comparison — and
// reports the headline quantities as custom metrics so `go test
// -bench=. -benchmem` reproduces the paper's numbers alongside the
// runtime costs.
//
// The full suites (10 x ~500-task graphs) run in a few seconds per
// scheduler; benchmarks use modest suite prefixes per iteration to keep
// `-bench=.` runs pleasant, while `cmd/experiments` renders the complete
// tables. Set -benchtime=1x for a single full pass.

import (
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/experiments"
	"nocsched/internal/msb"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
	"nocsched/internal/tgff"

	root "nocsched"
)

// benchSuiteSize bounds the random-suite prefix used per benchmark
// iteration (the full 10-graph suite is exercised by cmd/experiments).
const benchSuiteSize = 3

// BenchmarkFig5CategoryI regenerates Fig. 5: EAS-base vs EAS vs EDF
// energy on category-I random benchmarks (4x4 heterogeneous NoC).
func BenchmarkFig5CategoryI(b *testing.B) {
	benchRandomSuite(b, tgff.CategoryI)
}

// BenchmarkFig6CategoryII regenerates Fig. 6: the same comparison under
// category II's tighter deadlines.
func BenchmarkFig6CategoryII(b *testing.B) {
	benchRandomSuite(b, tgff.CategoryII)
}

func benchRandomSuite(b *testing.B, c tgff.Category) {
	b.ReportAllocs()
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRandomSuite(c, benchSuiteSize)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.AvgEDFOverheadPct()
		for _, bench := range res.Benchmarks {
			if bench.EASMisses != 0 {
				b.Fatalf("%s: EAS missed %d deadlines", bench.Name, bench.EASMisses)
			}
		}
	}
	b.ReportMetric(overhead, "EDF-overhead-%")
}

// BenchmarkTable1Encoder regenerates Table 1: the 24-task A/V encoder
// on a 2x2 NoC over the three clips.
func BenchmarkTable1Encoder(b *testing.B) {
	benchMSB(b, experiments.MSBEncoder)
}

// BenchmarkTable2Decoder regenerates Table 2: the 16-task A/V decoder.
func BenchmarkTable2Decoder(b *testing.B) {
	benchMSB(b, experiments.MSBDecoder)
}

// BenchmarkTable3Integrated regenerates Table 3: the 40-task combined
// system on a 3x3 NoC.
func BenchmarkTable3Integrated(b *testing.B) {
	benchMSB(b, experiments.MSBIntegrated)
}

func benchMSB(b *testing.B, system experiments.MSBSystem) {
	b.ReportAllocs()
	var avgSavings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMSB(system)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, row := range res.Rows {
			if row.EASMisses != 0 {
				b.Fatalf("clip %s: EAS missed deadlines", row.Clip)
			}
			sum += row.SavingsPct
		}
		avgSavings = sum / float64(len(res.Rows))
	}
	b.ReportMetric(avgSavings, "savings-%")
}

// BenchmarkFig7Tradeoff regenerates Fig. 7: EAS and EDF energy as the
// required performance ratio of the integrated system sweeps 1.0-1.8.
func BenchmarkFig7Tradeoff(b *testing.B) {
	b.ReportAllocs()
	var rise float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunTradeoff([]float64{1.0, 1.2, 1.4, 1.6, 1.8})
		if err != nil {
			b.Fatal(err)
		}
		first, last := points[0], points[len(points)-1]
		if last.EASMisses != 0 {
			b.Fatalf("EAS infeasible at ratio %.1f", last.Ratio)
		}
		rise = 100 * (last.EASEnergy - first.EASEnergy) / first.EASEnergy
	}
	b.ReportMetric(rise, "EAS-energy-rise-%")
}

// BenchmarkHopsDecomposition regenerates the Sec. 6.2 prose experiment
// (E7): computation/communication energy split and average hops per
// packet for the foreman clip, cross-checked by the wormhole replay.
func BenchmarkHopsDecomposition(b *testing.B) {
	b.ReportAllocs()
	var easHops, edfHops float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunDecomposition("foreman")
		if err != nil {
			b.Fatal(err)
		}
		easHops, edfHops = d.EASAvgHops, d.EDFAvgHops
	}
	b.ReportMetric(easHops, "EAS-hops")
	b.ReportMetric(edfHops, "EDF-hops")
}

// BenchmarkSearchRepair regenerates E8: scheduler run time and energy
// cost of fixing EAS-base deadline misses via search-and-repair on the
// tight category.
func BenchmarkSearchRepair(b *testing.B) {
	b.ReportAllocs()
	var fixed, residual int
	for i := 0; i < b.N; i++ {
		study, err := experiments.RunRepairStudy(tgff.CategoryII, benchSuiteSize)
		if err != nil {
			b.Fatal(err)
		}
		fixed, residual = 0, 0
		for _, r := range study.Rows {
			fixed += r.BaseMisses - r.FinalMisses
			residual += r.FinalMisses
		}
	}
	b.ReportMetric(float64(fixed), "misses-fixed")
	b.ReportMetric(float64(residual), "misses-left")
}

// BenchmarkAblationWeights measures the paper's W = VAR_e*VAR_r weight
// against VAR_e-only and uniform slack splitting.
func BenchmarkAblationWeights(b *testing.B) {
	b.ReportAllocs()
	var paperE, uniformE float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunWeightAblation(2)
		if err != nil {
			b.Fatal(err)
		}
		paperE, uniformE = 0, 0
		for _, r := range rows {
			paperE += r.VarEVarR
			uniformE += r.Uniform
		}
	}
	b.ReportMetric(100*(uniformE-paperE)/paperE, "uniform-vs-paper-%")
}

// BenchmarkAblationContention measures the cost of ignoring link
// contention: naive-model schedules replayed at flit level collide.
func BenchmarkAblationContention(b *testing.B) {
	b.ReportAllocs()
	var latePkts float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunContentionAblation(2)
		if err != nil {
			b.Fatal(err)
		}
		latePkts = 0
		for _, r := range rows {
			latePkts += float64(r.NaiveLatePackets)
		}
	}
	b.ReportMetric(latePkts, "naive-late-packets")
}

// BenchmarkAblationRouting compares XY and YX dimension-ordered routing
// under EAS.
func BenchmarkAblationRouting(b *testing.B) {
	b.ReportAllocs()
	var dE float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRoutingAblation(2)
		if err != nil {
			b.Fatal(err)
		}
		dE = 0
		for _, r := range rows {
			dE += 100 * (r.YXEnergy - r.XYEnergy) / r.XYEnergy
		}
		dE /= float64(len(rows))
	}
	b.ReportMetric(dE, "YX-vs-XY-%")
}

// BenchmarkLaxityFrontier measures the feasibility/energy frontier
// sweep (this repository's extension of Figs. 5/6 into a curve).
func BenchmarkLaxityFrontier(b *testing.B) {
	b.ReportAllocs()
	var tightOverhead float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunLaxitySweep([]float64{0.8, 1.3}, 2)
		if err != nil {
			b.Fatal(err)
		}
		tightOverhead = points[0].AvgOverheadPct
	}
	b.ReportMetric(tightOverhead, "tight-overhead-%")
}

// BenchmarkScaling measures end-to-end scheduling across problem sizes.
func BenchmarkScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScaling([]int{100, 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the scheduler itself ------------------------

// BenchmarkEASScheduler measures EAS scheduling throughput on one
// ~500-task category-I benchmark (the paper reports 1.7-3.2 s on 2004
// hardware).
func BenchmarkEASScheduler(b *testing.B) {
	platform, acg, err := experiments.RandomPlatform()
	if err != nil {
		b.Fatal(err)
	}
	g, err := tgff.Generate(tgff.SuiteParams(tgff.CategoryI, 0, platform))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eas.Schedule(g, acg, eas.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEDFScheduler measures the EDF baseline on the same workload.
func BenchmarkEDFScheduler(b *testing.B) {
	platform, acg, err := experiments.RandomPlatform()
	if err != nil {
		b.Fatal(err)
	}
	g, err := tgff.Generate(tgff.SuiteParams(tgff.CategoryI, 0, platform))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edf.Schedule(g, acg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDLSScheduler measures the DLS baseline, the solver whose
// rows the lazy scan prunes hardest and whose rows are carried most: six
// 300-task Category I graphs on the 4x4 mesh, one workspace reused across
// solves as a batch worker reuses it, warmed by one solve of each graph
// so that B/op is the steady state. probes/op counts every F(i,k)
// answer, evaluated/op only those the probe cache could not serve;
// rows/op counts the ready-task rows scanned and carried/op those reused
// unscanned because nothing they read had changed.
func BenchmarkDLSScheduler(b *testing.B) {
	platform, acg, err := experiments.RandomPlatform()
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*ctg.Graph
	for i := 0; i < 6; i++ {
		p := tgff.SuiteParams(tgff.CategoryI, i, platform)
		p.NumTasks = 300
		g, err := tgff.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	ws := sched.NewWorkspace(1, false)
	for _, g := range graphs {
		if _, err := dls.ScheduleWith(ws, g, acg); err != nil {
			b.Fatal(err)
		}
	}
	var probes, evaluated, rows, carried int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := dls.ScheduleWith(ws, graphs[i%len(graphs)], acg)
		if err != nil {
			b.Fatal(err)
		}
		probes += s.Probes
		evaluated += s.Probes - s.ProbeReuses
		rows += s.RowScans
		carried += s.RowsCarried
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(float64(carried)/float64(b.N), "carried/op")
}

// BenchmarkWormholeReplay measures the flit-level simulator replaying
// the integrated multimedia schedule.
func BenchmarkWormholeReplay(b *testing.B) {
	p3, err := msb.DefaultPlatform3x3()
	if err != nil {
		b.Fatal(err)
	}
	acg, err := root.BuildACG(p3, root.DefaultEnergyModel())
	if err != nil {
		b.Fatal(err)
	}
	clip, err := msb.ClipByName("foreman")
	if err != nil {
		b.Fatal(err)
	}
	g, err := msb.Integrated(clip, p3)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eas.Schedule(g, acg, eas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(res.Schedule, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTGFFGenerate measures random benchmark generation.
func BenchmarkTGFFGenerate(b *testing.B) {
	platform, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		b.Fatal(err)
	}
	params := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgff.Generate(params); err != nil {
			b.Fatal(err)
		}
	}
}
