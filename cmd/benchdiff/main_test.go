package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/benchcmp"
)

// writeFile drops raw into dir under name and returns the path.
func writeFile(t *testing.T, dir, name string, raw []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// readBaseline loads a committed repo-root benchmark report.
func readBaseline(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCommittedBaselinesSelfCompare: every committed baseline compared
// against itself exits clean, with the kind auto-detected.
func TestCommittedBaselinesSelfCompare(t *testing.T) {
	for _, name := range []string{"BENCH_sched.json", "BENCH_resilience.json", "BENCH_serve.json"} {
		p := filepath.Join("..", "..", name)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		err := run([]string{"-baseline", p, "-candidate", p, "-timing-threshold", "0.01"}, &out, &out)
		if err != nil {
			t.Errorf("%s self-compare: %v\n%s", name, err, out.String())
		}
		if !strings.Contains(out.String(), "PASS") {
			t.Errorf("%s: output lacks PASS: %s", name, out.String())
		}
	}
}

// TestDegradedBaselineFails: synthetically degrading a committed
// baseline's deterministic metrics makes the watchdog exit non-zero.
func TestDegradedBaselineFails(t *testing.T) {
	raw := readBaseline(t, "BENCH_serve.json")
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	cells, ok := doc["cells"].([]any)
	if !ok || len(cells) == 0 {
		t.Fatal("BENCH_serve.json has no cells")
	}
	// Flip the bit-identity flag on the first cell: a deterministic
	// regression no threshold can excuse.
	cells[0].(map[string]any)["identical"] = false
	degraded, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", raw)
	cand := writeFile(t, dir, "cand.json", degraded)
	report := filepath.Join(dir, "report.json")

	var out bytes.Buffer
	err = run([]string{"-baseline", base, "-candidate", cand, "-o", report}, &out, &out)
	if !errors.Is(err, errRegressions) {
		t.Fatalf("degraded candidate: err = %v, want errRegressions\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "identical") {
		t.Errorf("output does not name the regression: %s", out.String())
	}

	// The -o report is written even on failure and is a typed
	// benchcmp.Report naming the regression.
	repRaw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchcmp.Report
	if err := json.Unmarshal(repRaw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || rep.Kind != benchcmp.KindServe {
		t.Errorf("report = kind %q, %d regressions; want serve with failures", rep.Kind, rep.Regressions)
	}
	var found bool
	for _, d := range rep.Deltas {
		if d.Metric == "identical" && d.Regressed {
			found = true
		}
	}
	if !found {
		t.Error("report deltas do not flag the identical bit")
	}
}

// TestMissingCellFails: a candidate that silently drops a sweep cell
// is a coverage regression.
func TestMissingCellFails(t *testing.T) {
	raw := readBaseline(t, "BENCH_resilience.json")
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	cells := doc["cells"].([]any)
	if len(cells) < 2 {
		t.Skip("resilience baseline has a single cell")
	}
	doc["cells"] = cells[:len(cells)-1]
	shrunk, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", raw)
	cand := writeFile(t, dir, "cand.json", shrunk)
	var out bytes.Buffer
	err = run([]string{"-baseline", base, "-candidate", cand}, &out, &out)
	if !errors.Is(err, errRegressions) {
		t.Fatalf("shrunk candidate: err = %v, want errRegressions\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "MISSING cell") {
		t.Errorf("output does not report the missing cell: %s", out.String())
	}
}

// TestExplicitKindAndErrors covers flag validation and I/O failures
// (exit status 2 paths).
func TestExplicitKindAndErrors(t *testing.T) {
	dir := t.TempDir()
	raw := readBaseline(t, "BENCH_serve.json")
	base := writeFile(t, dir, "base.json", raw)
	var out bytes.Buffer

	// Explicit -kind bypasses detection.
	if err := run([]string{"-baseline", base, "-candidate", base, "-kind", "serve"}, &out, &out); err != nil {
		t.Errorf("-kind serve self-compare: %v", err)
	}
	// Wrong explicit kind is a hard error (schema mismatch), not a pass.
	if err := run([]string{"-baseline", base, "-candidate", base, "-kind", "sched"}, &out, &out); err == nil || errors.Is(err, errRegressions) {
		t.Errorf("-kind sched on a serve report: err = %v, want a usage error", err)
	}
	// Unknown kind.
	if err := run([]string{"-baseline", base, "-candidate", base, "-kind", "nope"}, &out, &out); err == nil {
		t.Error("unknown -kind accepted")
	}
	// Missing required flags.
	if err := run([]string{"-baseline", base}, &out, &out); err == nil {
		t.Error("missing -candidate accepted")
	}
	// Unreadable inputs.
	if err := run([]string{"-baseline", filepath.Join(dir, "absent.json"), "-candidate", base}, &out, &out); err == nil {
		t.Error("absent baseline accepted")
	}
	if err := run([]string{"-baseline", base, "-candidate", filepath.Join(dir, "absent.json")}, &out, &out); err == nil {
		t.Error("absent candidate accepted")
	}
	// Undetectable kind without -kind.
	junk := writeFile(t, dir, "junk.json", []byte(`{"rows":[]}`))
	if err := run([]string{"-baseline", junk, "-candidate", junk}, &out, &out); err == nil {
		t.Error("undetectable kind accepted")
	}
}
