// Command nocbench is the repository's end-to-end and per-layer
// benchmark. It drives the schedd daemon over HTTP (serve-* workloads)
// and the in-process batch engine (batch-* workloads) with inputs
// generated from -seed, checks every output it measures, and prints
// one JSON result line per workload.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	nocbench -workload NAME|all [-seed 1] [-seconds 15] [-trace 0|1]
//	         [-schedd PATH] [-trace-out DIR] [-commit ID]
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, and the run also writes a
// Chrome trace and layers.json under -trace-out. nocbench exits
// non-zero, without printing a result, when any correctness check
// fails. See bench/README.md for the workloads and the metric catalog.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"nocsched/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings, shared by every workload.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every workload's input counts; tests use 0.02.
	scale  float64
	launch launcher
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed every input derives from")
		seconds  = fs.Float64("seconds", 15, "length of the measured phase, in seconds")
		traceArg = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		schedd   = fs.String("schedd", "", "schedd binary the serve workloads start")
		traceOut = fs.String("trace-out", filepath.Join(".bench_build", "trace"), "directory for traced runs' trace.json and layers.json")
		commit   = fs.String("commit", "unknown", "commit under test, recorded in the report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	}
	switch {
	case len(todo) == 0:
		fmt.Fprintf(stderr, "nocbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0 || (*traceArg != 0 && *traceArg != 1):
		fmt.Fprintln(stderr, "nocbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceArg == 1, scale: 1, launch: scheddLauncher(*schedd)}
	for _, w := range todo {
		if w.serve && *schedd == "" {
			fmt.Fprintf(stderr, "nocbench: %s needs -schedd\n", w.name)
			return 2
		}
		res, err := runWorkload(context.Background(), cfg, w)
		if err == nil && cfg.trace {
			dir := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
			err = writeTrace(dir, res.events, res.layerDoc(w.name, cfg.seed))
		}
		var line *resultLine
		if err == nil {
			line, err = res.line(cfg.trace)
		}
		if err != nil {
			fmt.Fprintf(stderr, "nocbench: %s: %v\n", w.name, err)
			return 1
		}
		rep := res.report(w.name, cfg, *commit)
		for _, v := range []any{rep, line} {
			raw, err := json.Marshal(v)
			if err != nil {
				fmt.Fprintf(stderr, "nocbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", raw)
		}
	}
	return 0
}

// runWorkload runs one workload at the configured scale. An error means
// the run failed or a correctness check did not hold.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	w = w.scaled(cfg.scale)
	calibrate() // the first calibration in a process runs cold
	if w.serve {
		return runServe(ctx, cfg, w)
	}
	return runBatch(ctx, cfg, w)
}

// result is everything one workload run measured.
type result struct {
	attempted, failed int
	e2e, layers       map[string]float64
	// samples is the sample count behind a metric, where it has one.
	samples map[string]int
	tailPct float64
	// speed and setupSpeed are the machine speeds the timed phase (the
	// median over its slices) and the set-up were scaled by.
	speed, setupSpeed float64
	// digest identifies the schedules the run checked; one seed must
	// always give one digest.
	digest string
	// events is the traced phase's trace; dropped counts events past
	// the in-memory cap.
	events  []telemetry.Event
	dropped int
}

func newResult() *result {
	r := &result{e2e: make(map[string]float64), layers: make(map[string]float64), samples: make(map[string]int)}
	for _, l := range layers {
		r.layers[l.name] = 0
	}
	return r
}

// slice is one stretch of load between two calibrations.
type slice struct {
	lat        []float64 // ms per successful operation
	ok, failed int
	wall       time.Duration
	cpu        float64 // CPU seconds the program under test used
	// speed is the machine's speed around the slice relative to
	// refRate. Reported timings are at reference speed: raw durations
	// times speed, raw rates divided by it.
	speed float64
}

func (s *slice) ops() int { return s.ok + s.failed }

// throughput is successful operations per second at reference speed.
func (s *slice) throughput() float64 { return float64(s.ok) / s.wall.Seconds() / s.speed }

// phase is one measured stretch of load, as calibrated slices. Its
// end-to-end timings are medians over the slices, so a burst of
// interference from another tenant spoils one slice, not the run.
type phase struct{ slices []*slice }

// total merges the slices, unscaled, for the per-layer metrics.
func (ph *phase) total() *slice {
	t := &slice{}
	for _, s := range ph.slices {
		t.lat = append(t.lat, s.lat...)
		t.ok += s.ok
		t.failed += s.failed
		t.wall += s.wall
		t.cpu += s.cpu
	}
	return t
}

// perSlice is the median over the slices of f.
func (ph *phase) perSlice(f func(*slice) float64) float64 {
	vs := make([]float64, len(ph.slices))
	for i, s := range ph.slices {
		vs[i] = f(s)
	}
	return median(vs)
}

func (ph *phase) throughput() float64 { return ph.perSlice((*slice).throughput) }

// count adds a phase's operations to the run's totals.
func (r *result) count(ph *phase) {
	t := ph.total()
	r.attempted += t.ops()
	r.failed += t.failed
}

// timings records a phase's end-to-end timings, each the median over
// the slices at reference speed; tailPerMille is the workload's tail
// quantile.
func (r *result) timings(ph *phase, tailPerMille int) {
	r.tailPct = 100
	for _, s := range ph.slices {
		slices.Sort(s.lat)
		pct, _ := tail(s.lat, tailPerMille)
		r.tailPct = min(r.tailPct, pct)
	}
	r.e2e["throughput_per_s"] = ph.throughput()
	r.e2e["latency_p50_ms"] = ph.perSlice(func(s *slice) float64 { return quantile(s.lat, 500) * s.speed })
	r.e2e["latency_tail_ms"] = ph.perSlice(func(s *slice) float64 {
		_, v := tail(s.lat, tailPerMille)
		return v * s.speed
	})
	r.e2e["cpu_ms_per_op"] = ph.perSlice(func(s *slice) float64 { return s.cpu * 1000 / float64(s.ops()) * s.speed })
	r.speed = ph.perSlice(func(s *slice) float64 { return s.speed })
	t := ph.total()
	r.samples["throughput_per_s"] = t.ok
	r.samples["latency_p50_ms"] = len(t.lat)
	r.samples["latency_tail_ms"] = len(t.lat)
	r.samples["cpu_ms_per_op"] = t.ops()
}

// setup records the median of repeated set-ups at reference speed.
func (r *result) setup(seconds []float64, speed float64) {
	r.setupSpeed = speed
	r.e2e["setup_s"] = median(seconds) * speed
	r.samples["setup_s"] = len(seconds)
}

// quality records the outcome metrics of a fixed set of schedules.
func (r *result) quality(q *quality) {
	r.e2e["energy_ratio"] = q.energyRatio()
	r.samples["energy_ratio"] = q.n
	r.layers["sched.deadline_miss_ratio"] = q.missRatio()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's contract: the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line selects the declared metrics: end-to-end ones for an untraced
// run, per-layer ones for a traced run. It is printed only after every
// check passed, so Correct is always true.
func (r *result) line(traced bool) (*resultLine, error) {
	out := &resultLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	add := func(m metric, values map[string]float64) error {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		return nil
	}
	var errs []error
	if traced {
		for _, l := range layers {
			errs = append(errs, add(l.metric, r.layers))
		}
	} else {
		for _, m := range endToEnd {
			errs = append(errs, add(m, r.e2e))
		}
	}
	return out, errors.Join(errs...)
}

type reportMetric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// report is the line before the result: where and how the run was
// made, the machine speeds timings were scaled by, the chosen tail
// percentile, the schedule digest and every measured metric with its
// sample count.
type report struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Traced         bool           `json:"traced"`
	Cores          int            `json:"cores"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	Go             string         `json:"go"`
	Commit         string         `json:"commit"`
	Speed          float64        `json:"speed"`
	SetupSpeed     float64        `json:"setup_speed"`
	TailPercentile float64        `json:"tail_percentile"`
	ScheduleDigest string         `json:"schedule_digest"`
	Metrics        []reportMetric `json:"metrics"`
}

func (r *result) report(workload string, cfg config, commit string) *report {
	rep := &report{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit,
		Speed: r.speed, SetupSpeed: r.setupSpeed, TailPercentile: r.tailPct, ScheduleDigest: r.digest,
	}
	for _, m := range endToEnd {
		rep.Metrics = append(rep.Metrics, reportMetric{m.name, m.unit, r.e2e[m.name], r.samples[m.name]})
	}
	if cfg.trace {
		for _, l := range layers {
			rep.Metrics = append(rep.Metrics, reportMetric{l.name, l.unit, r.layers[l.name], r.samples[l.name]})
		}
	}
	return rep
}

type layerEntry struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Better  string   `json:"better"`
	Value   float64  `json:"value"`
	Samples int      `json:"samples,omitempty"`
	Moves   []string `json:"moves"`
}

// layerDoc is layers.json: every declared layer metric with its value
// and the "metric on workload" pairs it is expected to move.
func (r *result) layerDoc(workload string, seed int64) any {
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Dropped  int          `json:"dropped_events,omitempty"`
		Layers   []layerEntry `json:"layers"`
	}{Workload: workload, Seed: seed, Dropped: r.dropped}
	for _, l := range layers {
		e := layerEntry{Name: l.name, Unit: l.unit, Better: l.better, Value: r.layers[l.name], Samples: r.samples[l.name]}
		for _, t := range l.moves {
			e.Moves = append(e.Moves, t.metric+" on "+t.workload)
		}
		doc.Layers = append(doc.Layers, e)
	}
	return doc
}

// traceClock emits complete spans with explicit start and end times
// into a tracer's timebase, so spans recorded here line up with the
// schedulers' own spans on the same tracer.
type traceClock struct {
	tr    *telemetry.Tracer
	epoch time.Time
}

func newTraceClock(sink telemetry.Sink) *traceClock {
	return &traceClock{tr: telemetry.NewTracer(sink), epoch: time.Now()}
}

// span is a no-op on a nil clock (untraced phases).
func (c *traceClock) span(name, track string, start, end time.Time) {
	if c == nil {
		return
	}
	c.tr.Emit(telemetry.Event{Name: name, Track: track, Kind: 'X',
		Ts: start.Sub(c.epoch).Microseconds(), Dur: end.Sub(start).Microseconds()})
}
