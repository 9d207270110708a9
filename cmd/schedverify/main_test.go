package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
)

// writeArtifacts builds a small instance on the CLI's default platform
// (4x4 XY mesh, bandwidth 256, default energy model), schedules it with
// EDF, and writes both JSON artifacts into dir.
func writeArtifacts(t *testing.T, dir string) (graphPath, schedPath string) {
	t.Helper()
	platform, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("cli-rig")
	exec := make([]int64, platform.NumPEs())
	eng := make([]float64, platform.NumPEs())
	for k := range exec {
		exec[k] = int64(10 + k)
		eng[k] = float64(2 + k)
	}
	var ids []ctg.TaskID
	for _, name := range []string{"a", "b", "c"} {
		id, err := g.AddTask(name, exec, eng, ctg.NoDeadline)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := g.AddEdge(ids[0], ids[1], 512); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(ids[1], ids[2], 256); err != nil {
		t.Fatal(err)
	}
	s, err := edf.Schedule(g, acg)
	if err != nil {
		t.Fatal(err)
	}

	graphPath = filepath.Join(dir, "graph.json")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	schedPath = filepath.Join(dir, "sched.json")
	sf, err := os.Create(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return graphPath, schedPath
}

func TestRunCleanSchedule(t *testing.T) {
	graphPath, schedPath := writeArtifacts(t, t.TempDir())
	var out, errBuf bytes.Buffer
	err := run([]string{"-graph", graphPath, "-schedule", schedPath}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Fatalf("expected ok output, got %q", out.String())
	}
}

func TestRunTamperedScheduleExitsWithFindings(t *testing.T) {
	dir := t.TempDir()
	graphPath, schedPath := writeArtifacts(t, dir)
	raw, err := os.ReadFile(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	// The entry task starts at 0; drag it negative so the oracle must
	// flag it regardless of where the scheduler placed anything.
	tampered := bytes.Replace(raw, []byte(`"start": 0`), []byte(`"start": -5`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tampering had no effect; adjust the mutation")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err = run([]string{"-graph", graphPath, "-schedule", badPath}, &out, &errBuf)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run = %v, want errFindings\nstdout: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "findings") {
		t.Fatalf("expected findings output, got %q", out.String())
	}
}

func TestRunJSONReport(t *testing.T) {
	graphPath, schedPath := writeArtifacts(t, t.TempDir())
	var out, errBuf bytes.Buffer
	err := run([]string{"-graph", graphPath, "-schedule", schedPath, "-json"}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), `"findings"`) {
		t.Fatalf("expected JSON report, got %q", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	graphPath, schedPath := writeArtifacts(t, t.TempDir())
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Fatal("missing required flags accepted")
	}
	if err := run([]string{"-graph", graphPath, "-schedule", schedPath, "-mesh", "banana"}, &out, &errBuf); err == nil {
		t.Fatal("bad mesh spec accepted")
	}
	if err := run([]string{"-graph", graphPath, "-schedule", schedPath, "-mesh", "4x4junk"}, &out, &errBuf); err == nil {
		t.Fatal("mesh spec with trailing input accepted")
	}
	if err := run([]string{"-graph", graphPath, "-schedule", schedPath, "-routing", "zz"}, &out, &errBuf); err == nil {
		t.Fatal("bad routing scheme accepted")
	}
}
