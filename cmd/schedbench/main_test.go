package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestSweepSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	err := run([]string{
		"-tasks", "30,40", "-meshes", "3x3", "-scheds", "eas,edf,dls",
		"-reps", "1", "-o", out,
	}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep Report
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 6 {
		t.Fatalf("got %d configs, want 6", len(rep.Configs))
	}
	for _, c := range rep.Configs {
		if !c.Identical {
			t.Errorf("%s %s %d tasks: schedules not identical", c.Mesh, c.Algorithm, c.Tasks)
		}
		if c.Probes <= 0 {
			t.Errorf("%s %s %d tasks: no probes recorded", c.Mesh, c.Algorithm, c.Tasks)
		}
		if c.ReadonlySeqMS <= 0 || c.ReadonlyParMS <= 0 {
			t.Errorf("%s %s %d tasks: missing timings: %+v", c.Mesh, c.Algorithm, c.Tasks, c)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-tasks", "abc"},
		{"-meshes", "4by4"},
		{"-meshes", "3x3,4x4extra"},
		{"-scheds", "heft"},
		{"-reps", "0"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
