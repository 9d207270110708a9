package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestSweepSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	err := run([]string{
		"-tasks", "30,40", "-meshes", "3x3", "-scheds", "eas,edf,dls", "-o", out,
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
	}
}

// TestReportIndependentOfHost: the report is a function of the flags
// alone, so the committed baseline can be checked with diff on any
// host. Run the same sweep at two GOMAXPROCS settings and require
// byte-identical output.
func TestReportIndependentOfHost(t *testing.T) {
	args := []string{"-tasks", "30", "-meshes", "3x3", "-scheds", "eas,edf,dls"}
	sweep := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v (stderr: %s)", procs, err, stderr.String())
		}
		return stdout.Bytes()
	}
	one, four := sweep(1), sweep(4)
	if !bytes.Equal(one, four) {
		t.Errorf("report differs between GOMAXPROCS=1 and 4:\n%s\n---\n%s", one, four)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-tasks", "abc"},
		{"-meshes", "4by4"},
		{"-meshes", "3x3,4x4extra"},
		{"-scheds", "heft"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
