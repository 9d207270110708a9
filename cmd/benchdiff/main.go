// Command benchdiff compares a freshly generated benchmark report
// (schedbench, resilbench or schedload output) against a
// committed baseline and fails when a metric regressed — the
// bench-regression watchdog behind the CI benchdiff lane.
//
// Usage:
//
//	benchdiff -baseline BENCH_serve.json -candidate fresh.json
//	          [-kind sched|resilience|serve]
//	          [-timing-threshold 0.2] [-det-threshold 1e-9]
//	          [-o report.json]
//
// Metrics are classed per internal/benchcmp: deterministic metrics
// (probe counts, energy, identical bits — seed-reproducible) gate at
// -det-threshold always; timing metrics (wall-clock, throughput,
// latency quantiles — host-dependent) gate only when -timing-threshold
// is set, and only in the worse direction. A cell present in the
// baseline but missing from the candidate is a coverage regression.
// The kind is auto-detected from the baseline's shape unless -kind is
// given.
//
// The exit status is 0 for a clean comparison, 1 when regressions were
// found, and 2 on usage or I/O errors. With -o the full typed report
// (benchcmp.Report) is written as JSON regardless of the outcome.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nocsched/internal/benchcmp"
)

// errRegressions marks a completed comparison that found regressions
// (exit status 1, not an error message).
var errRegressions = errors.New("benchmark regressions found")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errRegressions):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "committed baseline report JSON (required)")
	candidate := fs.String("candidate", "", "freshly generated report JSON (required)")
	kindFlag := fs.String("kind", "", "report kind: sched, resilience or serve (default: auto-detect)")
	timingThr := fs.Float64("timing-threshold", 0, "gate timing metrics at this relative worsening (0 = informational only)")
	detThr := fs.Float64("det-threshold", 0, "gate deterministic metrics at this relative delta (default 1e-9)")
	reportOut := fs.String("o", "", "write the typed comparison report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline == "" || *candidate == "" {
		fs.Usage()
		return errors.New("-baseline and -candidate are required")
	}

	baseRaw, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	candRaw, err := os.ReadFile(*candidate)
	if err != nil {
		return err
	}

	kind := benchcmp.Kind(*kindFlag)
	if kind == "" {
		kind, err = benchcmp.DetectKind(baseRaw)
		if err != nil {
			return fmt.Errorf("%s: %w (set -kind explicitly)", *baseline, err)
		}
	}

	rep, err := benchcmp.Compare(kind, baseRaw, candRaw, benchcmp.Options{
		DeterministicThreshold: *detThr,
		TimingThreshold:        *timingThr,
	})
	if err != nil {
		return err
	}

	if *reportOut != "" {
		f, err := os.Create(*reportOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close() //nolint:errcheck // the encode error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	printReport(stdout, rep)
	if rep.Failed() {
		return errRegressions
	}
	return nil
}

// printReport writes the human-readable comparison: the summary line,
// coverage changes, then every regressed delta with its values.
func printReport(w io.Writer, rep *benchcmp.Report) {
	fmt.Fprintln(w, rep.Summary())
	for _, key := range rep.MissingCells {
		fmt.Fprintf(w, "  MISSING cell %s (in baseline, not in candidate)\n", key)
	}
	for _, key := range rep.ExtraCells {
		fmt.Fprintf(w, "  extra cell %s (in candidate only; informational)\n", key)
	}
	for _, d := range rep.Deltas {
		if !d.Regressed {
			continue
		}
		if d.Note != "" {
			fmt.Fprintf(w, "  REGRESSED %s %s [%s]: %s\n", d.Key, d.Metric, d.Class, d.Note)
			continue
		}
		fmt.Fprintf(w, "  REGRESSED %s %s [%s]: %g -> %g (%+.2f%%, threshold %.2f%%)\n",
			d.Key, d.Metric, d.Class, d.Base, d.New, 100*d.RelDelta, 100*d.Threshold)
	}
}
