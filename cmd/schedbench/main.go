// Command schedbench is the scheduler determinism harness: it sweeps
// task count x mesh size x algorithm over TGFF-style graphs, schedules
// each configuration once, and writes the probe counts, the tests a
// finish bound settled instead of a probe, energy and deadline misses
// as a JSON report (see BENCH_sched.json at the repo
// root for the committed baseline).
//
// Usage:
//
//	schedbench [-tasks 100,250,500] [-meshes 4x4] [-scheds eas,edf,dls]
//	           [-laxity 1.3] [-seed 1] [-o BENCH_sched.json]
//	           [-cpuprofile f] [-memprofile f] [-trace f]
//	           [-metrics] [-metrics-out f] [-trace-out f]
//
// Every number in the report is a function of the flags alone, not of
// the host, so a fresh report is checked against the baseline with
// plain diff. Speed is measured by bench/run.sh (nocbench).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

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
	Seed    int64    `json:"seed"`
	Laxity  float64  `json:"laxity"`
	Configs []Config `json:"configs"`
}

// Config is one cell of the sweep.
type Config struct {
	Mesh      string `json:"mesh"`
	Tasks     int    `json:"tasks"`
	Edges     int    `json:"edges"`
	Algorithm string `json:"algorithm"`

	Probes      int64 `json:"probes"`
	ProbeReuses int64 `json:"probe_reuses"`
	RowScans    int64 `json:"row_scans"`
	RowsCarried int64 `json:"rows_carried"`
	// BoundSettled counts the tests a finish bound settled without a
	// probe (sched.Schedule.BoundSettled); only EAS Step 2 has any, so
	// the field is left out where it is zero.
	BoundSettled   int64   `json:"bound_settled,omitempty"`
	EnergyNJ       float64 `json:"energy_nj"`
	DeadlineMisses int     `json:"deadline_misses"`
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

	report := Report{Seed: *seed, Laxity: *laxity}
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
				cfg, err := benchConfig(g, acg, mesh, algo, sess)
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

// benchConfig runs one sweep cell and records its probe counts,
// energy and deadline misses. Telemetry from the session (if enabled)
// is attached to the run.
func benchConfig(g *ctg.Graph, acg *energy.ACG, mesh, algo string, sess *diag.Session) (Config, error) {
	s, err := solve(g, acg, algo, sess.Collector())
	if err != nil {
		return Config{}, err
	}
	return Config{
		Mesh:           mesh,
		Tasks:          g.NumTasks(),
		Edges:          g.NumEdges(),
		Algorithm:      algo,
		Probes:         s.Probes,
		ProbeReuses:    s.ProbeReuses,
		RowScans:       s.RowScans,
		RowsCarried:    s.RowsCarried,
		BoundSettled:   s.BoundSettled,
		EnergyNJ:       s.TotalEnergy(),
		DeadlineMisses: len(s.DeadlineMisses()),
	}, nil
}

// solve executes one scheduling run of algo.
func solve(g *ctg.Graph, acg *energy.ACG, algo string, telem *telemetry.Collector) (*sched.Schedule, error) {
	switch algo {
	case "edf":
		return edf.ScheduleOpts(g, acg, edf.Options{Telemetry: telem})
	case "dls":
		return dls.Schedule(g, acg)
	}
	r, err := eas.Schedule(g, acg, eas.Options{Telemetry: telem})
	if err != nil {
		return nil, err
	}
	return r.Schedule, nil
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
