package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// writeTestGraph generates a small benchmark characterized for a 2x2
// platform and writes it to dir.
func writeTestGraph(t *testing.T, dir string, laxity float64) string {
	t.Helper()
	platform, err := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgff.Generate(tgff.Params{
		Name: "clitest", Seed: 9, NumTasks: 30, MaxInDegree: 2,
		LocalityWindow: 8, TaskTypes: 5, ExecMin: 20, ExecMax: 150,
		HeteroSpread: 0.4, VolumeMin: 256, VolumeMax: 4096,
		ControlEdgeFraction: 0.1, DeadlineLaxity: laxity, DeadlineFraction: 1,
		Platform: platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "graph.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSchedulers(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	for _, sched := range []string{"eas", "eas-base", "edf"} {
		var out, errb bytes.Buffer
		err := run([]string{"-graph", graph, "-mesh", "2x2", "-sched", sched, "-gantt", "-verify", "-util"},
			&out, &errb)
		if err != nil {
			t.Fatalf("%s: %v\nstderr: %s", sched, err, errb.String())
		}
		for _, want := range []string{"graph:", "energy:", "replay:", "utilization", "clitest"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output missing %q", sched, want)
			}
		}
	}
}

func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	jsonOut := filepath.Join(dir, "sched.json")
	dotOut := filepath.Join(dir, "graph.dot")
	var out, errb bytes.Buffer
	if err := run([]string{"-graph", graph, "-mesh", "2x2",
		"-json-out", jsonOut, "-dot-out", dotOut}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	sj, err := os.ReadFile(jsonOut)
	if err != nil || !strings.Contains(string(sj), "\"algorithm\"") {
		t.Errorf("schedule JSON not written: %v", err)
	}
	dot, err := os.ReadFile(dotOut)
	if err != nil || !strings.Contains(string(dot), "digraph") {
		t.Errorf("DOT not written: %v", err)
	}
}

func TestRunSVGAndBuffers(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	svgOut := filepath.Join(dir, "sched.svg")
	var out, errb bytes.Buffer
	if err := run([]string{"-graph", graph, "-mesh", "2x2",
		"-svg-out", svgOut, "-buffers"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgOut)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Errorf("SVG not written: %v", err)
	}
	if !strings.Contains(out.String(), "buffer requirements") {
		t.Error("buffer report missing")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	cases := map[string][]string{
		"missing graph": {},
		"bad file":      {"-graph", filepath.Join(dir, "nope.json")},
		"bad mesh":      {"-graph", graph, "-mesh", "abc"},
		"trailing mesh": {"-graph", graph, "-mesh", "2x2junk"},
		"bad routing":   {"-graph", graph, "-routing", "zigzag"},
		"bad sched":     {"-graph", graph, "-mesh", "2x2", "-sched", "magic"},
		"pe mismatch":   {"-graph", graph, "-mesh", "4x4"},
		"bad flag":      {"-nonsense"},
	}
	for name, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunDeadlineMissExit(t *testing.T) {
	dir := t.TempDir()
	// Hopeless deadlines: laxity far below anything achievable.
	graph := writeTestGraph(t, dir, 0.05)
	var out, errb bytes.Buffer
	err := run([]string{"-graph", graph, "-mesh", "2x2", "-sched", "edf"}, &out, &errb)
	if !errors.Is(err, errDeadlineMiss) {
		t.Fatalf("err = %v, want errDeadlineMiss", err)
	}
}

// TestJSONRoundTripThroughCLI ensures the graph format the CLI reads is
// the same one the library writes.
func TestJSONRoundTripThroughCLI(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	f, err := os.Open(graph)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ctg.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 30 {
		t.Errorf("tasks = %d", g.NumTasks())
	}
}

func TestRunWithPlatformSpec(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	spec := filepath.Join(dir, "platform.json")
	if err := os.WriteFile(spec, []byte(
		`{"topology":"mesh","width":2,"height":2,"routing":"yx","bandwidth":256}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-graph", graph, "-platform", spec}, &out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "mesh2x2-yx") {
		t.Errorf("platform spec not used:\n%s", out.String())
	}
	// A spec whose tile count mismatches the graph must be rejected.
	big := filepath.Join(dir, "big.json")
	os.WriteFile(big, []byte(`{"topology":"mesh","width":4,"height":4,"bandwidth":256}`), 0o644)
	if err := run([]string{"-graph", graph, "-platform", big}, &out, &errb); err == nil {
		t.Error("PE-count mismatch accepted")
	}
	// Broken spec file.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"topology":"hypercube"}`), 0o644)
	if err := run([]string{"-graph", graph, "-platform", bad}, &out, &errb); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestRunTelemetryFlags drives -metrics/-metrics-out/-trace-out end to
// end: the run report lands in stdout, and both artifacts validate
// against their schemas.
func TestRunTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-graph", graph, "-mesh", "2x2", "-verify",
		"-metrics", "-metrics-out", metricsPath, "-trace-out", tracePath},
		&out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, errb.String())
	}
	for _, want := range []string{"run metrics", "sched_probes_total", "energy_total_nj"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	n, err := telemetry.ValidateChromeTrace(tf)
	if err != nil {
		t.Fatalf("trace artifact invalid: %v", err)
	}
	if n == 0 {
		t.Error("trace artifact has no events")
	}
	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := telemetry.ValidateSnapshot(mf)
	if err != nil {
		t.Fatalf("metrics artifact invalid: %v", err)
	}
	probes := int64(-1)
	for _, c := range snap.Counters {
		if c.Name == sched.MetricProbes {
			probes = c.Value
		}
	}
	if probes <= 0 {
		t.Errorf("%s = %d in artifact, want > 0", sched.MetricProbes, probes)
	}
}

// TestRunTelemetryOffByDefault checks that without -metrics the run
// report never appears (telemetry is strictly opt-in).
func TestRunTelemetryOffByDefault(t *testing.T) {
	dir := t.TempDir()
	graph := writeTestGraph(t, dir, 1.6)
	var out, errb bytes.Buffer
	if err := run([]string{"-graph", graph, "-mesh", "2x2"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "run metrics") {
		t.Errorf("unrequested metrics report:\n%s", out.String())
	}
}
