package benchcmp

import (
	"encoding/json"

	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serveDoc builds a minimal serve report with the given cell fields.
func serveDoc(t *testing.T, cells ...map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"gomaxprocs": 1, "cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func serveCell(mesh string, tasks, solves int, hitRatio, rps float64, identical bool) map[string]any {
	return map[string]any{
		"mesh": mesh, "tasks": tasks,
		"requests": 216, "workloads": 8,
		"status_2xx": 216, "status_429_retries": 0, "status_5xx": 0,
		"solves": solves, "hit_ratio": hitRatio,
		"throughput_rps": rps, "p50_ms": 3.0, "p99_ms": 20.0,
		"cold_ms": 5.0, "warm_ms": 3.0, "warm_speedup": 1.7,
		"identical": identical, "verified": true,
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	doc := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true), serveCell("3x3", 200, 8, 0.96, 460, true))
	rep, err := Compare(KindServe, doc, doc, Options{TimingThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.Regressions != 0 {
		t.Fatalf("self-compare failed: %s", rep.Summary())
	}
	if rep.Cells != 2 {
		t.Errorf("cells = %d, want 2", rep.Cells)
	}
	if !strings.Contains(rep.Summary(), "PASS") {
		t.Errorf("summary %q lacks PASS", rep.Summary())
	}
}

// TestCompareDeterministicRegression: an identical-bit flip is a
// regression regardless of thresholds.
func TestCompareDeterministicRegression(t *testing.T) {
	base := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true))
	cand := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, false))
	rep, err := Compare(KindServe, base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("identical=false not flagged")
	}
	found := false
	for _, d := range rep.Deltas {
		if d.Metric == "identical" && d.Regressed && d.Class == ClassDeterministic {
			found = true
		}
	}
	if !found {
		t.Errorf("no regressed identical delta in %+v", rep.Deltas)
	}
	// Regressions sort first.
	if !rep.Deltas[0].Regressed {
		t.Error("regressed delta not sorted first")
	}
}

// TestCompareTimingGate: timing metrics gate only when a threshold is
// set, and only past it.
func TestCompareTimingGate(t *testing.T) {
	base := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true))
	slower := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 300, true)) // throughput -30%

	// Ungated: informational only.
	rep, err := Compare(KindServe, base, slower, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("timing regression gated without a threshold: %s", rep.Summary())
	}

	// Gated at 10%: fails.
	rep, err = Compare(KindServe, base, slower, Options{TimingThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("30% throughput drop passed a 10% gate")
	}

	// Gated at 50%: passes.
	rep, err = Compare(KindServe, base, slower, Options{TimingThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("30%% drop failed a 50%% gate: %s", rep.Summary())
	}

	// Improvements never gate.
	faster := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 900, true))
	rep, err = Compare(KindServe, base, faster, Options{TimingThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("improvement gated: %s", rep.Summary())
	}
}

// TestCompareMissingCell: shrinking coverage is a regression.
func TestCompareMissingCell(t *testing.T) {
	base := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true), serveCell("4x4", 100, 8, 0.96, 300, true))
	cand := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true))
	rep, err := Compare(KindServe, base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || len(rep.MissingCells) != 1 {
		t.Fatalf("missing cell not flagged: %s", rep.Summary())
	}
	// Extra candidate cells are informational.
	rep, err = Compare(KindServe, cand, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || len(rep.ExtraCells) != 1 {
		t.Fatalf("extra cell handling wrong: %s", rep.Summary())
	}
}

// TestCompareCommittedBaselines: every committed repo-root baseline
// self-compares clean under its detected kind, with timing gates on.
func TestCompareCommittedBaselines(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, name := range []string{"BENCH_sched.json", "BENCH_resilience.json", "BENCH_serve.json"} {
		raw, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kind, err := DetectKind(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := Compare(kind, raw, raw, Options{TimingThreshold: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed() {
			t.Errorf("%s self-compare failed: %s", name, rep.Summary())
		}
		if rep.Cells == 0 || len(rep.Deltas) == 0 {
			t.Errorf("%s: nothing compared (cells=%d deltas=%d)", name, rep.Cells, len(rep.Deltas))
		}
	}
}

func TestDetectKind(t *testing.T) {
	cases := []struct {
		doc  string
		want Kind
	}{
		{`{"configs":[{"mesh":"4x4"}]}`, KindSched},
		{`{"cells":[{"rate":0.1,"retries":2}]}`, KindResilience},
		{`{"cells":[{"mesh":"3x3","hit_ratio":0.96}]}`, KindServe},
	}
	for _, c := range cases {
		got, err := DetectKind([]byte(c.doc))
		if err != nil || got != c.want {
			t.Errorf("DetectKind(%s) = %q, %v; want %q", c.doc, got, err, c.want)
		}
	}
	for _, bad := range []string{`[]`, `{}`, `{"cells":[]}`, `{"cells":[{"x":1}]}`} {
		if _, err := DetectKind([]byte(bad)); err == nil {
			t.Errorf("DetectKind(%s) accepted", bad)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	good := serveDoc(t, serveCell("3x3", 100, 8, 0.96, 430, true))
	if _, err := Compare("nope", good, good, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Compare(KindServe, []byte("x"), good, Options{}); err == nil {
		t.Error("bad baseline accepted")
	}
	if _, err := Compare(KindServe, good, []byte("x"), Options{}); err == nil {
		t.Error("bad candidate accepted")
	}
	empty, _ := json.Marshal(map[string]any{"cells": []any{}})
	if _, err := Compare(KindServe, empty, good, Options{}); err == nil {
		t.Error("empty baseline accepted")
	}
	// A candidate cell losing a metric field is a regression, not an
	// error.
	cell := serveCell("3x3", 100, 8, 0.96, 430, true)
	delete(cell, "throughput_rps")
	rep, err := Compare(KindServe, good, serveDoc(t, cell), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Error("dropped metric field not flagged")
	}
	var noted bool
	for _, d := range rep.Deltas {
		if d.Metric == "throughput_rps" && d.Regressed && d.Note != "" {
			noted = true
		}
	}
	if !noted {
		t.Error("dropped metric delta carries no note")
	}
	// The report must stay JSON-encodable even with schema drift.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-encodable: %v", err)
	}
}

// TestCompareServeKind pins the serve schema's gating split: solves
// and hit_ratio are deterministic (any drift fails regardless of
// thresholds), throughput gates only when timing is opted in.
func TestCompareServeKind(t *testing.T) {
	base := serveDoc(t, serveCell("4x4", 60, 8, 0.96, 380, true))

	if kind, err := DetectKind(base); err != nil || kind != KindServe {
		t.Fatalf("DetectKind = %q, %v; want serve", kind, err)
	}
	rep, err := Compare(KindServe, base, base, Options{TimingThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("self-compare failed: %s", rep.Summary())
	}

	// More solves under the identical request mix = cache keying broke.
	moreSolves := serveDoc(t, serveCell("4x4", 60, 16, 0.92, 380, true))
	rep, err = Compare(KindServe, base, moreSolves, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Error("solves/hit_ratio drift not flagged")
	}

	// Slower throughput is informational without a timing threshold...
	slower := serveDoc(t, serveCell("4x4", 60, 8, 0.96, 100, true))
	rep, err = Compare(KindServe, base, slower, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Errorf("ungated timing drift failed the build: %s", rep.Summary())
	}
	// ...and a regression once the caller opts in.
	rep, err = Compare(KindServe, base, slower, Options{TimingThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Error("gated throughput regression not flagged")
	}
}
