package eas

import (
	"bytes"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// telemetryRig generates a mid-size TGFF benchmark on a 4x4 mesh.
func telemetryRig(t *testing.T, seed int64) (*ctg.Graph, *energy.ACG) {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	params := tgff.SuiteParams(tgff.CategoryI, 0, p)
	params.Seed = seed
	params.NumTasks = 80
	g, err := tgff.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	return g, acg
}

// TestTelemetryDoesNotChangeSchedule is the differential guarantee:
// attaching a collector (metrics AND an active trace sink) must leave
// the committed schedule bit-identical to an untelemetered run.
func TestTelemetryDoesNotChangeSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g, acg := telemetryRig(t, seed)

		plain, err := Schedule(g, acg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		col := telemetry.NewCollector(telemetry.NewChromeSink(&trace))
		metered, err := Schedule(g, acg, Options{Telemetry: col})
		if err != nil {
			t.Fatal(err)
		}
		if d := sched.Diff(plain.Schedule, metered.Schedule); d != "" {
			t.Fatalf("seed %d: telemetry changed the schedule: %s", seed, d)
		}
		if plain.Probes != metered.Probes {
			t.Fatalf("seed %d: telemetry changed the probe count: %d vs %d",
				seed, plain.Probes, metered.Probes)
		}

		// The registry's probe counter is the same quantity the result
		// reports (the repair pass's interior builders are not metered,
		// and do not count toward Result.Probes either).
		if got := col.Registry.Counter(sched.MetricProbes).Value(); got != metered.Probes {
			t.Errorf("seed %d: %s = %d, Result.Probes = %d",
				seed, sched.MetricProbes, got, metered.Probes)
		}
		if got := col.Registry.Counter(sched.MetricCommits).Value(); got < int64(g.NumTasks()) {
			t.Errorf("seed %d: %s = %d, want >= %d", seed, sched.MetricCommits, got, g.NumTasks())
		}

		if !col.Tracer.Enabled() {
			t.Fatal("tracer not enabled")
		}
	}
}

// TestTelemetryTraceValidates closes the sink and validates the phases
// trace easched would write for -trace-out.
func TestTelemetryTraceValidates(t *testing.T) {
	g, acg := telemetryRig(t, 3)
	var trace bytes.Buffer
	sink := telemetry.NewChromeSink(&trace)
	col := telemetry.NewCollector(sink)
	res, err := Schedule(g, acg, Options{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	res.Schedule.EmitChromeTrace(sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateChromeTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	// At least one phase span per pass plus one slice per task.
	if n < g.NumTasks() {
		t.Errorf("only %d events for %d tasks", n, g.NumTasks())
	}
	// Published schedule gauges are consistent with the result.
	snap := col.Registry.Snapshot()
	var total, comp, comm float64
	for _, gs := range snap.Gauges {
		switch gs.Name {
		case sched.MetricEnergyTotal:
			total = gs.Value
		case sched.MetricEnergyCompute:
			comp = gs.Value
		case sched.MetricEnergyComm:
			comm = gs.Value
		}
	}
	if want := res.Schedule.TotalEnergy(); !close64(total, want) {
		t.Errorf("%s = %g, want %g", sched.MetricEnergyTotal, total, want)
	}
	if !close64(comp+comm, total) {
		t.Errorf("compute %g + comm %g != total %g", comp, comm, total)
	}
}

// TestTelemetryDoesNotChangeEDF is the EDF-path differential twin.
func TestTelemetryDoesNotChangeEDF(t *testing.T) {
	g, acg := telemetryRig(t, 5)
	plain, err := edf.ScheduleOpts(g, acg, edf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(nil)
	metered, err := edf.ScheduleOpts(g, acg, edf.Options{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	if d := sched.Diff(plain, metered); d != "" {
		t.Fatalf("telemetry changed the EDF schedule: %s", d)
	}
	if got := col.Registry.Counter(sched.MetricProbes).Value(); got != metered.Probes {
		t.Errorf("%s = %d, Result.Probes = %d", sched.MetricProbes, got, metered.Probes)
	}
}

// TestProbeReusesMetric reconciles the reuse counter with the result:
// sched_probe_reuses_total equals Result.ProbeReuses, and Step 2 serves
// some, but not all, of its probes from the cache.
func TestProbeReusesMetric(t *testing.T) {
	g, acg := telemetryRig(t, 3)
	col := telemetry.NewCollector(nil)
	res, err := Schedule(g, acg, Options{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Registry.Counter(sched.MetricProbeReuses).Value(); got != res.ProbeReuses {
		t.Errorf("%s = %d, Result.ProbeReuses = %d", sched.MetricProbeReuses, got, res.ProbeReuses)
	}
	if res.ProbeReuses <= 0 || res.ProbeReuses >= res.Probes {
		t.Errorf("EAS reused %d of %d probes, want some but not all", res.ProbeReuses, res.Probes)
	}
}

// TestReadyDepthPerRound reconciles the ready-depth histogram with the
// list-scheduling rounds: one commit, and so one observation, per task
// in an EDF solve and in a single-pass EAS-base solve.
func TestReadyDepthPerRound(t *testing.T) {
	g, acg := telemetryRig(t, 4)
	depth := func(col *telemetry.Collector) int64 {
		return col.Registry.Histogram(sched.MetricReadyDepth, nil).Count()
	}
	col := telemetry.NewCollector(nil)
	if _, err := edf.ScheduleOpts(g, acg, edf.Options{Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	if got := depth(col); got != int64(g.NumTasks()) {
		t.Errorf("edf: %s count = %d, want %d", sched.MetricReadyDepth, got, g.NumTasks())
	}
	col = telemetry.NewCollector(nil)
	if _, err := Schedule(g, acg, Options{DisableRepair: true, Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	if got := depth(col); got != int64(g.NumTasks()) {
		t.Errorf("eas-base: %s count = %d, want %d", sched.MetricReadyDepth, got, g.NumTasks())
	}
}

// close64 compares floats to a relative 1e-9.
func close64(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	}
	if -b > m {
		m = -b
	}
	return d <= 1e-9*m || d == 0
}
