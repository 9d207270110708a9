package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
)

// TestLoadAgainstInProcessDaemon runs the full generator loop — readyz
// poll, cold phase, concurrent burst, bit-identity and
// verify gates — against an in-process serve.Server.
func TestLoadAgainstInProcessDaemon(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2, Telemetry: telemetry.NewCollector(nil)})
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Close() }()

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-url", ts.URL, "-mesh", "3x3", "-tasks", "20",
		"-workloads", "3", "-requests", "18", "-concurrency", "4",
		"-seed", "5", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if err := checkReport(&rep); err != nil {
		t.Fatalf("report schema: %v", err)
	}
	c := rep.Cells[0]
	if c.Requests != 3+18 {
		t.Errorf("requests = %d, want 21", c.Requests)
	}
	if c.Solves != 3 {
		t.Errorf("solves = %d, want one per distinct workload", c.Solves)
	}
	if c.Status2xx != c.Requests {
		t.Errorf("status_2xx = %d, want all %d requests to succeed", c.Status2xx, c.Requests)
	}
}

// TestBadFlags: input validation fails fast, before any HTTP traffic.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mesh", "4by4"},
		{"-mesh", "3x3junk"},
		{"-scheds", "eas,annealer"},
		{"-workloads", "0"},
		{"-requests", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestArtifactValidates validates a schedload -o report when
// NOCSCHED_SERVE_FILE points at it (the CI service lane sets it to the
// report of its run against the real daemon), so that run can never
// record a 5xx or lose its correctness gates.
func TestArtifactValidates(t *testing.T) {
	path := os.Getenv("NOCSCHED_SERVE_FILE")
	if path == "" {
		t.Skip("NOCSCHED_SERVE_FILE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	if err := checkReport(&rep); err != nil {
		t.Fatalf("%s schema: %v", path, err)
	}
}

// checkReport enforces the report invariants shared by the in-process
// test and the artifact validator.
func checkReport(rep *report) error {
	if len(rep.Cells) == 0 {
		return fmt.Errorf("no cells")
	}
	for i, c := range rep.Cells {
		switch {
		case c.Mesh == "" || c.Tasks < 1:
			return fmt.Errorf("cell %d: bad workload key %q/%d", i, c.Mesh, c.Tasks)
		case c.Requests < 1 || c.Workloads < 1:
			return fmt.Errorf("cell %d: empty run", i)
		case c.Status5xx != 0:
			return fmt.Errorf("cell %d: %d server errors", i, c.Status5xx)
		case c.Status2xx != c.Requests:
			return fmt.Errorf("cell %d: %d of %d requests succeeded", i, c.Status2xx, c.Requests)
		case c.Solves < 1 || c.Solves > c.Requests:
			return fmt.Errorf("cell %d: solves = %d", i, c.Solves)
		case c.HitRatio <= 0 || c.HitRatio >= 1:
			return fmt.Errorf("cell %d: hit_ratio = %g, want within (0,1)", i, c.HitRatio)
		case !c.Identical:
			return fmt.Errorf("cell %d: responses were not bit-identical", i)
		case !c.Verified:
			return fmt.Errorf("cell %d: schedules failed verification", i)
		}
	}
	return nil
}
