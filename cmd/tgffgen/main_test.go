package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/ctg"
)

func TestRunDefault(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-tasks", "40", "-seed", "5"}, &out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, errb.String())
	}
	g, err := ctg.ReadJSON(&out)
	if err != nil {
		t.Fatalf("output is not a valid CTG: %v", err)
	}
	if g.NumTasks() != 40 {
		t.Errorf("tasks = %d", g.NumTasks())
	}
	if !strings.Contains(errb.String(), "40 tasks") {
		t.Errorf("summary missing: %s", errb.String())
	}
}

func TestRunSuiteBenchmark(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-category", "II", "-index", "4"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	g, err := ctg.ReadJSON(&out)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "tgff-catII-04" {
		t.Errorf("graph name %q", g.Name)
	}
}

func TestRunSPToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sp.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-tasks", "50", "-shape", "sp", "-o", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ctg.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Error("SP graph shape wrong")
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"bad mesh":      {"-mesh", "x"},
		"trailing mesh": {"-mesh", "3x3junk"},
		"bad shape":     {"-shape", "spiral"},
		"bad category":  {"-category", "III"},
		"bad tasks":     {"-tasks", "0"},
		"inf laxity":    {"-laxity", "Inf"},
		"bad flag":      {"-bogus"},
	}
	for name, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
