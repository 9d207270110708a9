package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-graphs", "1", "-tasks", "24", "-mesh", "3x3",
		"-kmax", "2", "-trials", "4", "-seed", "7", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "recovered") {
		t.Errorf("summary table missing:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.PerK) != 2 || rep.PerK[0].K != 1 || rep.PerK[1].K != 2 {
		t.Fatalf("per-k rows wrong: %+v", rep.PerK)
	}
	for _, kr := range rep.PerK {
		if kr.Trials != 4 {
			t.Errorf("k=%d trials %d, want 4", kr.K, kr.Trials)
		}
		if kr.Recovered+kr.Infeasible+kr.Disconnected+kr.NoCapablePE != kr.Trials {
			t.Errorf("k=%d outcomes do not sum to trials: %+v", kr.K, kr)
		}
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	args := []string{"-graphs", "1", "-tasks", "24", "-mesh", "3x3",
		"-kmax", "1", "-trials", "4", "-seed", "3"}
	var a, b, stderr bytes.Buffer
	if err := run(args, &a, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if err := run(args, &b, &stderr); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for name, args := range map[string][]string{
		"bad mesh":      {"-mesh", "abc"},
		"trailing mesh": {"-mesh", "3x3junk"},
		"bad graphs":    {"-graphs", "0"},
		"bad kmax":      {"-kmax", "0"},
		"bad trials":    {"-trials", "-1"},
		"bad flag":      {"-nonsense"},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
