// Command schedbench is the scheduler performance harness: it sweeps
// task count x mesh size x algorithm over TGFF-style graphs and, for
// each configuration, times the probe pool at two widths —
//
//   - readonly-seq: one probe worker,
//   - readonly-par: GOMAXPROCS probe workers,
//
// verifying that both produce bit-identical schedules, and writes a
// machine-readable JSON report (see BENCH_sched.json at the repo root
// for a committed baseline).
//
// Usage:
//
//	schedbench [-tasks 100,250,500] [-meshes 4x4] [-scheds eas,edf,dls]
//	           [-laxity 1.3] [-reps 3] [-seed 1] [-o BENCH_sched.json]
//	           [-cpuprofile f] [-memprofile f] [-trace f]
//	           [-metrics] [-metrics-out f] [-trace-out f]
//
// Timing is best-of -reps per path. Allocation counts come from
// runtime.MemStats deltas around a whole scheduling run, normalized by
// the number of F(i,k) probes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/diag"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// Report is the top-level JSON document.
type Report struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Laxity     float64  `json:"laxity"`
	Reps       int      `json:"reps"`
	Configs    []Config `json:"configs"`
}

// Config is one cell of the sweep.
type Config struct {
	Mesh      string `json:"mesh"`
	Tasks     int    `json:"tasks"`
	Edges     int    `json:"edges"`
	Algorithm string `json:"algorithm"`
	Workers   int    `json:"workers"`

	ReadonlySeqMS  float64 `json:"readonly_seq_ms"`
	ReadonlyParMS  float64 `json:"readonly_par_ms"`
	SpeedupPar     float64 `json:"speedup_par"`
	Probes         int64   `json:"probes"`
	ProbeReuses    int64   `json:"probe_reuses"`
	ProbesPerSec   float64 `json:"probes_per_sec"`
	AllocsPerProbe struct {
		Readonly float64 `json:"readonly"`
	} `json:"allocs_per_probe"`
	EnergyNJ       float64 `json:"energy_nj"`
	DeadlineMisses int     `json:"deadline_misses"`
	Identical      bool    `json:"identical"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tasksSpec = fs.String("tasks", "100,250,500", "comma-separated task counts")
		meshSpec  = fs.String("meshes", "4x4", "comma-separated mesh sizes, WIDTHxHEIGHT")
		schedSpec = fs.String("scheds", "eas,edf,dls", "comma-separated schedulers: eas, edf, dls")
		laxity    = fs.Float64("laxity", 1.3, "deadline laxity of the generated graphs")
		reps      = fs.Int("reps", 3, "repetitions per path; best time wins")
		seed      = fs.Int64("seed", 1, "base RNG seed for graph generation")
		out       = fs.String("o", "", "write the JSON report to this file (default stdout)")
	)
	dflags := diag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := dflags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// The diagnostics session is live: flip /readyz for -serve probes.
	sess.MarkReady()

	taskCounts, err := parseInts(*tasksSpec)
	if err != nil {
		return fmt.Errorf("bad -tasks: %w", err)
	}
	meshes := strings.Split(*meshSpec, ",")
	dims := make([][2]int, len(meshes))
	for i, mesh := range meshes {
		w, h, err := noc.ParseMesh(mesh)
		if err != nil {
			return fmt.Errorf("-meshes: %w", err)
		}
		dims[i] = [2]int{w, h}
	}
	scheds := strings.Split(*schedSpec, ",")
	for _, s := range scheds {
		if s != "eas" && s != "edf" && s != "dls" {
			return fmt.Errorf("bad -scheds entry %q (want eas, edf or dls)", s)
		}
	}
	if *reps < 1 {
		return errors.New("-reps must be >= 1")
	}

	report := Report{GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Laxity: *laxity, Reps: *reps}
	for i, mesh := range meshes {
		platform, err := noc.NewHeterogeneousMesh(dims[i][0], dims[i][1], noc.RouteXY, 256)
		if err != nil {
			return err
		}
		acg, err := energy.BuildACG(platform, energy.DefaultModel())
		if err != nil {
			return err
		}
		for _, ntasks := range taskCounts {
			g, err := benchGraph(platform, ntasks, *laxity, *seed)
			if err != nil {
				return err
			}
			for _, algo := range scheds {
				fmt.Fprintf(stderr, "schedbench: %s %d tasks %s...\n", mesh, ntasks, algo)
				cfg, err := benchConfig(g, acg, mesh, algo, *reps, sess)
				if err != nil {
					return err
				}
				report.Configs = append(report.Configs, cfg)
			}
		}
	}

	var sink io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	// The metrics report goes to stderr so stdout stays valid JSON.
	return sess.WriteReport(stderr)
}

// benchGraph generates the sweep's graph for one task count: the
// paper's Category-I shape (SuiteParams index 0) scaled to ntasks with
// the requested laxity.
func benchGraph(platform *noc.Platform, ntasks int, laxity float64, seed int64) (*ctg.Graph, error) {
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Name = fmt.Sprintf("schedbench-%d", ntasks)
	p.Seed = seed
	p.NumTasks = ntasks
	p.DeadlineLaxity = laxity
	return tgff.Generate(p)
}

// runOnce executes one scheduling run with the given probe worker count
// and returns the schedule plus the wall time and Mallocs delta of the
// run.
func runOnce(g *ctg.Graph, acg *energy.ACG, algo string, workers int, telem *telemetry.Collector) (*sched.Schedule, time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	started := time.Now()
	var s *sched.Schedule
	var err error
	switch algo {
	case "edf":
		s, err = edf.ScheduleOpts(g, acg, edf.Options{Workers: workers, Telemetry: telem})
	case "dls":
		s, err = dls.ScheduleWith(sched.NewWorkspace(workers, false), g, acg)
	default:
		var r *eas.Result
		r, err = eas.Schedule(g, acg, eas.Options{Workers: workers, Telemetry: telem})
		if r != nil {
			s = r.Schedule
		}
	}
	elapsed := time.Since(started)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return s, elapsed, after.Mallocs - before.Mallocs, nil
}

// benchConfig measures one sweep cell: best-of-reps wall time at both
// probe-pool widths, the schedule diff between them, and the derived
// throughput metrics. Telemetry from the session (if enabled) is
// attached to the timed runs on purpose — the harness then measures
// what users with -metrics pay, and the zero-alloc guarantee holds in
// both states.
func benchConfig(g *ctg.Graph, acg *energy.ACG, mesh, algo string, reps int, sess *diag.Session) (Config, error) {
	cfg := Config{
		Mesh:      mesh,
		Tasks:     g.NumTasks(),
		Edges:     g.NumEdges(),
		Algorithm: algo,
		Workers:   runtime.GOMAXPROCS(0),
	}
	type path struct {
		workers int
		bestMS  *float64
		allocs  *float64
	}
	paths := []path{
		{1, &cfg.ReadonlySeqMS, &cfg.AllocsPerProbe.Readonly},
		{0, &cfg.ReadonlyParMS, nil},
	}
	var ref *sched.Schedule
	cfg.Identical = true
	for pi, p := range paths {
		best := time.Duration(0)
		var allocs uint64
		var s *sched.Schedule
		for r := 0; r < reps; r++ {
			got, elapsed, mallocs, err := runOnce(g, acg, algo, p.workers, sess.Collector())
			if err != nil {
				return cfg, err
			}
			if r == 0 || elapsed < best {
				best, allocs, s = elapsed, mallocs, got
			}
		}
		*p.bestMS = float64(best.Microseconds()) / 1000
		if p.allocs != nil && s.Probes > 0 {
			*p.allocs = float64(allocs) / float64(s.Probes)
		}
		if pi == 0 {
			ref = s
			cfg.Probes = s.Probes
			cfg.ProbeReuses = s.ProbeReuses
			cfg.EnergyNJ = s.TotalEnergy()
			cfg.DeadlineMisses = len(s.DeadlineMisses())
		} else if d := sched.Diff(ref, s); d != "" {
			cfg.Identical = false
			return cfg, fmt.Errorf("%s %s %d tasks: probe paths disagree: %s", mesh, algo, g.NumTasks(), d)
		}
		if pi == 1 && best > 0 {
			cfg.ProbesPerSec = float64(s.Probes) / best.Seconds()
		}
	}
	if cfg.ReadonlyParMS > 0 {
		cfg.SpeedupPar = cfg.ReadonlySeqMS / cfg.ReadonlyParMS
	}
	return cfg, nil
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("task count %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}
