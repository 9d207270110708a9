// Package benchcmp is the bench-regression watchdog behind
// cmd/benchdiff: it compares a freshly generated benchmark report
// (BENCH_sched.json, BENCH_resilience.json, BENCH_serve.json) against
// a committed baseline, metric by metric, and produces a typed
// machine-readable report.
//
// Metrics fall into two classes with different gating rules:
//
//   - deterministic metrics (probe counts, energy, deadline misses,
//     hit ratios, bit-identity flags) are reproducible from the seed
//     and must match the baseline within a tiny tolerance — any drift
//     is a behaviour change, not noise;
//   - timing metrics (milliseconds, instances/sec, latency
//     percentiles) vary with the host, so they gate only when the
//     caller sets a relative threshold (CI compares like-for-like
//     hardware; a developer laptop usually should not gate timing).
//
// Every delta is oriented so that positive RelDelta means "worse"
// regardless of whether the metric is lower-better or higher-better.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind identifies which benchmark schema a report follows.
type Kind string

// The supported benchmark kinds.
const (
	KindSched      Kind = "sched"      // cmd/schedbench: probe-path performance
	KindResilience Kind = "resilience" // cmd/resilbench: transient-fault campaigns
	KindServe      Kind = "serve"      // cmd/schedload: scheduling-daemon service load
)

// Class separates reproducible metrics from host-dependent ones.
type Class string

// The metric classes.
const (
	ClassDeterministic Class = "deterministic"
	ClassTiming        Class = "timing"
)

// Direction says which way "better" points for a metric.
type Direction int

// The directions.
const (
	LowerBetter Direction = iota
	HigherBetter
)

// metricSpec describes one gated metric of a benchmark schema.
type metricSpec struct {
	name  string
	dir   Direction
	class Class
}

// kindSpec describes one benchmark schema: where its cells live, what
// identifies a cell, and which metrics to compare.
type kindSpec struct {
	cellsField string
	keyFields  []string
	metrics    []metricSpec
}

var kindSpecs = map[Kind]kindSpec{
	KindSched: {
		cellsField: "configs",
		keyFields:  []string{"mesh", "tasks", "algorithm", "workers"},
		metrics: []metricSpec{
			{"edges", LowerBetter, ClassDeterministic},
			{"probes", LowerBetter, ClassDeterministic},
			{"probe_reuses", HigherBetter, ClassDeterministic},
			{"energy_nj", LowerBetter, ClassDeterministic},
			{"deadline_misses", LowerBetter, ClassDeterministic},
			{"identical", HigherBetter, ClassDeterministic},
			{"readonly_seq_ms", LowerBetter, ClassTiming},
			{"readonly_par_ms", LowerBetter, ClassTiming},
			{"probes_per_sec", HigherBetter, ClassTiming},
		},
	},
	KindResilience: {
		cellsField: "cells",
		keyFields:  []string{"rate", "retries"},
		metrics: []metricSpec{
			{"mean_hit_ratio", HigherBetter, ClassDeterministic},
			{"mean_dropped", LowerBetter, ClassDeterministic},
			{"mean_retransmitted", LowerBetter, ClassDeterministic},
			{"mean_retry_energy_frac", LowerBetter, ClassDeterministic},
			{"mean_added_latency", LowerBetter, ClassDeterministic},
		},
	},
	KindServe: {
		cellsField: "cells",
		keyFields:  []string{"mesh", "tasks"},
		metrics: []metricSpec{
			// Under the fixed request mix, solves and the hit ratio are
			// functions of the daemon's cache keying — drift means the
			// digest or cache behaviour changed, not noise.
			{"solves", LowerBetter, ClassDeterministic},
			{"status_5xx", LowerBetter, ClassDeterministic},
			{"hit_ratio", HigherBetter, ClassDeterministic},
			{"identical", HigherBetter, ClassDeterministic},
			{"verified", HigherBetter, ClassDeterministic},
			{"throughput_rps", HigherBetter, ClassTiming},
			{"p50_ms", LowerBetter, ClassTiming},
			{"p99_ms", LowerBetter, ClassTiming},
			{"cold_ms", LowerBetter, ClassTiming},
			{"warm_ms", LowerBetter, ClassTiming},
			{"warm_speedup", HigherBetter, ClassTiming},
		},
	},
}

// Options tunes the gates.
type Options struct {
	// DeterministicThreshold is the relative drift tolerated on
	// deterministic metrics; <= 0 selects 1e-9 (bit-exactness modulo
	// float printing).
	DeterministicThreshold float64
	// TimingThreshold is the relative worsening tolerated on timing
	// metrics; <= 0 leaves timing metrics ungated (reported as
	// informational deltas only).
	TimingThreshold float64
}

// Delta is one compared metric of one cell.
type Delta struct {
	// Key identifies the cell, e.g. "mesh=4x4/tasks=100/algorithm=eas/workers=1".
	Key string `json:"key"`
	// Metric is the JSON field name compared.
	Metric string `json:"metric"`
	// Class is deterministic or timing.
	Class Class `json:"class"`
	// Base and New are the baseline and candidate values.
	Base float64 `json:"base"`
	New  float64 `json:"new"`
	// RelDelta is the relative change oriented so positive is worse.
	RelDelta float64 `json:"rel_delta"`
	// Threshold is the gate applied (0 = informational only).
	Threshold float64 `json:"threshold"`
	// Regressed is true when the delta worsened past the threshold.
	Regressed bool `json:"regressed"`
	// Note carries a non-numeric reason (e.g. schema drift) when set.
	Note string `json:"note,omitempty"`
}

// Report is the typed outcome of one comparison.
type Report struct {
	// Kind echoes the benchmark schema compared.
	Kind Kind `json:"kind"`
	// Cells is the number of baseline cells examined.
	Cells int `json:"cells"`
	// MissingCells lists baseline cell keys absent from the candidate
	// (each counts as a regression: coverage must not silently shrink).
	MissingCells []string `json:"missing_cells,omitempty"`
	// ExtraCells lists candidate cells absent from the baseline
	// (informational; new coverage is fine).
	ExtraCells []string `json:"extra_cells,omitempty"`
	// Deltas holds every compared metric, regressions first, then by
	// key and metric name.
	Deltas []Delta `json:"deltas"`
	// Regressions counts gated deltas that worsened past their
	// threshold, plus missing cells.
	Regressions int `json:"regressions"`
}

// Failed reports whether the comparison should fail the build.
func (r *Report) Failed() bool { return r.Regressions > 0 }

// Summary renders a short human-readable verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchdiff %s: %d cells, %d metrics compared", r.Kind, r.Cells, len(r.Deltas))
	if len(r.MissingCells) > 0 {
		fmt.Fprintf(&b, ", %d baseline cells missing", len(r.MissingCells))
	}
	if r.Regressions == 0 {
		b.WriteString(": PASS")
		return b.String()
	}
	fmt.Fprintf(&b, ": FAIL (%d regressions)", r.Regressions)
	for _, d := range r.Deltas {
		if !d.Regressed {
			continue
		}
		fmt.Fprintf(&b, "\n  %s %s: %g -> %g (%.2f%% worse, threshold %.2f%%)",
			d.Key, d.Metric, d.Base, d.New, 100*d.RelDelta, 100*d.Threshold)
	}
	for _, k := range r.MissingCells {
		fmt.Fprintf(&b, "\n  missing cell %s", k)
	}
	return b.String()
}

// DetectKind infers the benchmark kind from a report's shape: sched
// reports keep cells under "configs", resilience cells carry "rate",
// serve cells carry "hit_ratio".
func DetectKind(raw []byte) (Kind, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("benchcmp: not a JSON object: %w", err)
	}
	if _, ok := doc["configs"]; ok {
		return KindSched, nil
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(doc["cells"], &cells); err != nil || len(cells) == 0 {
		return "", fmt.Errorf("benchcmp: report has neither configs nor cells")
	}
	if _, ok := cells[0]["rate"]; ok {
		return KindResilience, nil
	}
	if _, ok := cells[0]["hit_ratio"]; ok {
		return KindServe, nil
	}
	return "", fmt.Errorf("benchcmp: unrecognized cell shape")
}

// Compare gates a candidate benchmark report against a baseline of the
// same kind. It never mutates its inputs; the baseline defines the
// cell set (candidate-only cells are informational).
func Compare(kind Kind, baseline, candidate []byte, opts Options) (*Report, error) {
	spec, ok := kindSpecs[kind]
	if !ok {
		return nil, fmt.Errorf("benchcmp: unknown kind %q", kind)
	}
	if opts.DeterministicThreshold <= 0 {
		opts.DeterministicThreshold = 1e-9
	}
	baseCells, err := loadCells(baseline, spec)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: baseline: %w", err)
	}
	candCells, err := loadCells(candidate, spec)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: candidate: %w", err)
	}
	if len(baseCells.order) == 0 {
		return nil, fmt.Errorf("benchcmp: baseline has no cells")
	}

	rep := &Report{Kind: kind, Cells: len(baseCells.order)}
	for _, key := range baseCells.order {
		b := baseCells.byKey[key]
		c, ok := candCells.byKey[key]
		if !ok {
			rep.MissingCells = append(rep.MissingCells, key)
			rep.Regressions++
			continue
		}
		for _, m := range spec.metrics {
			bv, bok := numField(b, m.name)
			cv, cok := numField(c, m.name)
			if !bok && !cok {
				continue // metric absent on both sides (schema drift is fine if symmetric)
			}
			if bok != cok {
				// A metric present on one side only is schema drift —
				// always a regression, kept finite so the report stays
				// JSON-encodable.
				note := "metric missing in candidate"
				if cok {
					note = "metric missing in baseline"
				}
				rep.Deltas = append(rep.Deltas, Delta{
					Key: key, Metric: m.name, Class: m.class,
					Base: bv, New: cv, Note: note,
					Threshold: threshold(m.class, opts), Regressed: true,
				})
				rep.Regressions++
				continue
			}
			d := Delta{
				Key: key, Metric: m.name, Class: m.class,
				Base: bv, New: cv,
				RelDelta:  relDelta(bv, cv, m.dir),
				Threshold: threshold(m.class, opts),
			}
			if d.Threshold > 0 && d.RelDelta > d.Threshold {
				d.Regressed = true
				rep.Regressions++
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	for _, key := range candCells.order {
		if _, ok := baseCells.byKey[key]; !ok {
			rep.ExtraCells = append(rep.ExtraCells, key)
		}
	}
	sort.SliceStable(rep.Deltas, func(a, b int) bool {
		if rep.Deltas[a].Regressed != rep.Deltas[b].Regressed {
			return rep.Deltas[a].Regressed
		}
		return false
	})
	return rep, nil
}

// threshold selects the gate for a metric class; timing gates only
// when the caller opted in.
func threshold(c Class, opts Options) float64 {
	if c == ClassDeterministic {
		return opts.DeterministicThreshold
	}
	if opts.TimingThreshold > 0 {
		return opts.TimingThreshold
	}
	return 0
}

// relDelta computes the worseness-oriented relative change.
func relDelta(base, cand float64, dir Direction) float64 {
	worse := cand - base // positive = grew
	if dir == HigherBetter {
		worse = base - cand // positive = shrank
	}
	den := math.Abs(base)
	if den == 0 {
		den = math.Abs(cand)
	}
	if den == 0 {
		return 0
	}
	return worse / den
}

// cellSet is a keyed view of one report's cells in file order.
type cellSet struct {
	order []string
	byKey map[string]map[string]json.RawMessage
}

// loadCells decodes a report and indexes its cells by identity key.
func loadCells(raw []byte, spec kindSpec) (*cellSet, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("not a JSON object: %w", err)
	}
	cellsRaw, ok := doc[spec.cellsField]
	if !ok {
		return nil, fmt.Errorf("no %q field", spec.cellsField)
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(cellsRaw, &cells); err != nil {
		return nil, fmt.Errorf("bad %q field: %w", spec.cellsField, err)
	}
	set := &cellSet{byKey: make(map[string]map[string]json.RawMessage, len(cells))}
	for i, cell := range cells {
		key, err := cellKey(cell, spec.keyFields)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if _, dup := set.byKey[key]; dup {
			return nil, fmt.Errorf("duplicate cell %s", key)
		}
		set.byKey[key] = cell
		set.order = append(set.order, key)
	}
	return set, nil
}

// cellKey renders a cell's identity fields as "f=v/f=v/...".
func cellKey(cell map[string]json.RawMessage, fields []string) (string, error) {
	parts := make([]string, 0, len(fields))
	for _, f := range fields {
		raw, ok := cell[f]
		if !ok {
			return "", fmt.Errorf("missing key field %q", f)
		}
		parts = append(parts, f+"="+strings.Trim(string(raw), `"`))
	}
	return strings.Join(parts, "/"), nil
}

// numField reads a numeric (or boolean, mapped to 0/1) cell field.
func numField(cell map[string]json.RawMessage, name string) (float64, bool) {
	raw, ok := cell[name]
	if !ok {
		return 0, false
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err == nil {
		return v, true
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err == nil {
		if b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
