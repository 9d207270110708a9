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
	err := run([]string{"-graphs", "1", "-tasks", "30", "-mesh", "3x3",
		"-rates", "0.1,0.2", "-retries", "0,2", "-trials", "3",
		"-seed", "7", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "hit-ratio") {
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
	if err := checkReport(&rep); err != nil {
		t.Fatalf("report schema: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("want 2 rates x 2 budgets = 4 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Trials != 3 {
			t.Errorf("cell %+v: trials %d, want 3", c, c.Trials)
		}
	}
}

// TestRetryImprovesHitRatio pins the PR's acceptance criterion at bench
// scale: the very same corrupted traffic yields a strictly better
// deadline-hit ratio under a nonzero retry budget than under the drop
// baseline, and the recovery is not free (retry energy shows up).
func TestRetryImprovesHitRatio(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-graphs", "1", "-tasks", "40", "-mesh", "3x3",
		"-rates", "0.2", "-retries", "0,2", "-trials", "4",
		"-seed", "3", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Improved {
		t.Fatalf("retry budget did not improve the hit ratio: zero %v, best %v",
			rep.ZeroRetryHitRatio, rep.BestRetryHitRatio)
	}
	var retryEnergy float64
	for _, c := range rep.Cells {
		if c.Retries > 0 {
			retryEnergy += c.MeanRetryEnergyFrac
		}
	}
	if retryEnergy <= 0 {
		t.Error("nonzero retry budgets burned no retry energy")
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	args := []string{"-graphs", "1", "-tasks", "30", "-mesh", "3x3",
		"-rates", "0.1", "-retries", "0,1", "-trials", "3", "-seed", "5"}
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
		"bad mesh":       {"-mesh", "abc"},
		"trailing mesh":  {"-mesh", "3x3junk"},
		"bad graphs":     {"-graphs", "0"},
		"bad rate":       {"-rates", "0"},
		"rate too big":   {"-rates", "1.5"},
		"no zero retry":  {"-retries", "1,2"},
		"no live retry":  {"-retries", "0"},
		"negative retry": {"-retries", "0,-1"},
		"empty rates":    {"-rates", ""},
		"bad flag":       {"-nonsense"},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestArtifactValidates is the CI smoke lane's schema gate: point
// NOCSCHED_RESIL_FILE at a resilbench -o artifact and it checks the
// document structure and the campaign's headline acceptance criterion
// (nonzero retry budgets strictly beat the drop baseline).
func TestArtifactValidates(t *testing.T) {
	path := os.Getenv("NOCSCHED_RESIL_FILE")
	if path == "" {
		t.Skip("NOCSCHED_RESIL_FILE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not a resilbench report: %v", err)
	}
	if err := checkReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Improved {
		t.Fatalf("campaign did not improve: zero %v best %v",
			rep.ZeroRetryHitRatio, rep.BestRetryHitRatio)
	}
}

// checkReport validates the report's invariants: full rate x budget
// grid, probabilities in range, per-cell consistency.
func checkReport(rep *report) error {
	if len(rep.Rates) == 0 || len(rep.Retries) == 0 {
		return errBad("empty rates or retries")
	}
	if len(rep.Cells) != len(rep.Rates)*len(rep.Retries) {
		return errBad("cells do not cover the rate x budget grid")
	}
	for i, c := range rep.Cells {
		want := rep.Rates[i/len(rep.Retries)]
		if c.Rate != want || c.Retries != rep.Retries[i%len(rep.Retries)] {
			return errBad("cell grid out of order")
		}
		if c.Trials <= 0 {
			return errBad("cell with no trials")
		}
		if c.MeanHitRatio < 0 || c.MeanHitRatio > 1 {
			return errBad("hit ratio outside [0,1]")
		}
		if c.MeanRetryEnergyFrac < 0 || c.MeanRetryEnergyFrac > 1 {
			return errBad("retry energy fraction outside [0,1]")
		}
		if c.Retries == 0 && c.MeanRetransmitted != 0 {
			return errBad("zero-retry cell reports retransmissions")
		}
	}
	if rep.ZeroRetryHitRatio < 0 || rep.ZeroRetryHitRatio > 1 ||
		rep.BestRetryHitRatio < 0 || rep.BestRetryHitRatio > 1 {
		return errBad("summary hit ratios outside [0,1]")
	}
	if rep.Improved != (rep.BestRetryHitRatio > rep.ZeroRetryHitRatio) {
		return errBad("improved flag inconsistent with summary ratios")
	}
	return nil
}

type errBad string

func (e errBad) Error() string { return string(e) }
