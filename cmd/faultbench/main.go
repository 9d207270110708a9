// Command faultbench sweeps random k-fault scenarios over TGFF-style
// benchmarks and measures how well fault recovery (internal/fault)
// holds up: how often a scenario is recoverable at all, how often the
// recovered schedule still meets every deadline, and what the recovery
// costs in energy and task migrations.
//
// Usage:
//
//	faultbench [-graphs 3] [-tasks 120] [-mesh 4x4] [-kmax 3]
//	           [-trials 20] [-seed 1] [-laxity 1.6] [-o BENCH_fault.json]
//	           [-cpuprofile f] [-memprofile f] [-trace f]
//	           [-metrics] [-metrics-out f] [-trace-out f]
//
// Every trial draws a fresh random scenario of k faults (PE, router and
// link failures, uniform over the platform's resources), recovers the
// benchmark's fault-free EAS schedule from it, and classifies the
// outcome. The sweep is deterministic in -seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"nocsched/internal/diag"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/fault"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "faultbench:", err)
		os.Exit(1)
	}
}

// kReport aggregates outcomes of all trials at one fault count.
type kReport struct {
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Recovered counts trials whose recovery produced a schedule
	// meeting every deadline; Infeasible those whose best recovered
	// schedule still misses at least one.
	Recovered  int `json:"recovered"`
	Infeasible int `json:"infeasible"`
	// Disconnected / NoCapablePE count the typed unrecoverable
	// outcomes.
	Disconnected int `json:"disconnected"`
	NoCapablePE  int `json:"no_capable_pe"`
	// RecoveryRate is Recovered over Trials.
	RecoveryRate float64 `json:"recovery_rate"`
	// MeanEnergyOverhead / MeanTasksMigrated / FullReschedules
	// aggregate over the recovered (feasible) trials only.
	MeanEnergyOverhead float64 `json:"mean_energy_overhead"`
	MeanTasksMigrated  float64 `json:"mean_tasks_migrated"`
	FullReschedules    int     `json:"full_reschedules"`
}

// report is the JSON document faultbench emits.
type report struct {
	Mesh      string    `json:"mesh"`
	Graphs    int       `json:"graphs"`
	Tasks     int       `json:"tasks"`
	TrialsPeK int       `json:"trials_per_k_per_graph"`
	Seed      int64     `json:"seed"`
	Laxity    float64   `json:"laxity"`
	PerK      []kReport `json:"per_k"`
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphs   = fs.Int("graphs", 3, "number of TGFF benchmarks to sweep")
		tasks    = fs.Int("tasks", 120, "tasks per benchmark")
		meshSpec = fs.String("mesh", "4x4", "mesh dimensions, WIDTHxHEIGHT")
		kmax     = fs.Int("kmax", 3, "sweep fault counts 1..kmax")
		trials   = fs.Int("trials", 20, "random scenarios per fault count per benchmark")
		seed     = fs.Int64("seed", 1, "root seed for graphs and scenarios")
		laxity   = fs.Float64("laxity", 1.6, "deadline laxity of the generated benchmarks")
		outPath  = fs.String("o", "", "write the sweep report as JSON to this file")
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
	telem := sess.Collector()
	w, h, err := noc.ParseMesh(*meshSpec)
	if err != nil {
		return fmt.Errorf("-mesh: %w", err)
	}
	if *graphs < 1 || *kmax < 1 || *trials < 1 {
		return errors.New("-graphs, -kmax and -trials must be >= 1")
	}
	platform, err := noc.NewHeterogeneousMesh(w, h, noc.RouteXY, 256)
	if err != nil {
		return err
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		return err
	}

	rep := report{
		Mesh: *meshSpec, Graphs: *graphs, Tasks: *tasks,
		TrialsPeK: *trials, Seed: *seed, Laxity: *laxity,
		PerK: make([]kReport, *kmax),
	}
	for k := range rep.PerK {
		rep.PerK[k].K = k + 1
	}

	// One rng drives the whole sweep (satisfying reproducibility); the
	// graph seeds derive from the root seed so -graphs extends rather
	// than reshuffles the benchmark list.
	rng := rand.New(rand.NewSource(*seed))
	for gi := 0; gi < *graphs; gi++ {
		g, err := tgff.Generate(tgff.Params{
			Name: fmt.Sprintf("faultbench-%02d", gi), Seed: *seed*1000 + int64(gi),
			NumTasks: *tasks, MaxInDegree: 3, LocalityWindow: 16,
			TaskTypes: 8, ExecMin: 20, ExecMax: 200, HeteroSpread: 0.5,
			VolumeMin: 256, VolumeMax: 8192, ControlEdgeFraction: 0.1,
			DeadlineLaxity: *laxity, DeadlineFraction: 1, Platform: platform,
		})
		if err != nil {
			return err
		}
		base, err := eas.Schedule(g, acg, eas.Options{Telemetry: telem})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmark %s: %d tasks, %d transactions, fault-free misses %d\n",
			g.Name, g.NumTasks(), g.NumEdges(), len(base.Schedule.DeadlineMisses()))

		for k := 1; k <= *kmax; k++ {
			kr := &rep.PerK[k-1]
			for trial := 0; trial < *trials; trial++ {
				sc := fault.Random(rng, platform, k)
				kr.Trials++
				rec, err := fault.Recover(base.Schedule, sc, fault.Options{EAS: eas.Options{Telemetry: telem}})
				switch {
				case errors.Is(err, fault.ErrDisconnected):
					kr.Disconnected++
				case errors.Is(err, fault.ErrNoCapablePE):
					kr.NoCapablePE++
				case err != nil:
					return fmt.Errorf("benchmark %s scenario %+v: %w", g.Name, sc, err)
				case rec.Feasible():
					kr.Recovered++
					kr.MeanEnergyOverhead += rec.Stats.EnergyOverhead()
					kr.MeanTasksMigrated += float64(rec.Stats.TasksMigrated)
					if rec.Stats.FullReschedule {
						kr.FullReschedules++
					}
				default:
					kr.Infeasible++
				}
			}
		}
	}

	fmt.Fprintf(stdout, "\n%4s %7s %9s %10s %12s %11s %10s %9s\n",
		"k", "trials", "recovered", "infeasible", "disconnected", "no-cap-pe", "overhead", "migrated")
	for i := range rep.PerK {
		kr := &rep.PerK[i]
		if kr.Recovered > 0 {
			kr.MeanEnergyOverhead /= float64(kr.Recovered)
			kr.MeanTasksMigrated /= float64(kr.Recovered)
		}
		kr.RecoveryRate = float64(kr.Recovered) / float64(kr.Trials)
		fmt.Fprintf(stdout, "%4d %7d %9d %10d %12d %11d %9.1f%% %9.1f\n",
			kr.K, kr.Trials, kr.Recovered, kr.Infeasible, kr.Disconnected,
			kr.NoCapablePE, 100*kr.MeanEnergyOverhead, kr.MeanTasksMigrated)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nreport written to %s\n", *outPath)
	}
	return sess.WriteReport(stdout)
}
