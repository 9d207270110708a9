package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &f
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalog checks BENCHMARK.json's shape and
// that it declares exactly the workloads and metrics of catalog.go.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1-128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", f.RunSeconds)
	}
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q does not match %s", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	checkMetric := func(name, unit, better string) {
		checkName(name)
		if !unitPattern.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %s", name, unit, unitPattern)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q, want lower or higher", name, better)
		}
	}

	var names []string
	for _, w := range f.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, catalog has %v", names, want)
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(f.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range f.EndToEnd {
		checkMetric(m.Name, m.Unit, m.Better)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || *m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %s %s %s %g, catalog has %s %s %s %g",
				i, m.Name, m.Unit, m.Better, *m.Bound, c.name, c.unit, c.better, c.bound)
		}
		if m.Name != "setup_s" {
			largest = max(largest, *m.Bound)
		}
	}
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" || s.bound <= largest {
		t.Errorf("setup_s must come first, in s, lower, with the largest bound")
	}

	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d layer metrics, catalog has %d", len(f.PerLayer), len(layers))
	}
	for i, m := range f.PerLayer {
		checkMetric(m.Name, m.Unit, m.Better)
		c := layers[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalog has %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}

	// Every layer metric names the end-to-end metrics it should move,
	// on workloads that exist.
	for _, l := range layers {
		if len(l.moves) == 0 {
			t.Errorf("layer %s moves nothing", l.name)
		}
		for _, tg := range l.moves {
			if !slices.ContainsFunc(endToEnd, func(m metric) bool { return m.name == tg.metric }) {
				t.Errorf("layer %s targets unknown metric %s", l.name, tg.metric)
			}
			if _, ok := workloadByName(tg.workload); !ok {
				t.Errorf("layer %s targets unknown workload %s", l.name, tg.workload)
			}
		}
	}
}

// TestEmittedMetricsMatchDeclared runs one serve and one batch workload
// untraced and traced, and compares the metrics each result line
// carries with BENCHMARK.json.
func TestEmittedMetricsMatchDeclared(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, per []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		per = append(per, m.Name)
	}
	slices.Sort(e2e)
	slices.Sort(per)
	for _, name := range []string{"serve-hit", "batch-tight"} {
		for _, traced := range []bool{false, true} {
			res, err := runSmall(t, name, smallConfig(1, traced, nil))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			line, err := res.line(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var got []string
			for k, v := range line.Metrics {
				got = append(got, k)
				if v.Unit == "" {
					t.Errorf("%s: %s has no unit", name, k)
				}
			}
			slices.Sort(got)
			want := e2e
			if traced {
				want = per
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: result %+v", name, traced, line)
			}
		}
	}
}
