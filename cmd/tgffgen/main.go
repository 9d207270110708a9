// Command tgffgen generates pseudo-TGFF random Communication Task
// Graphs as JSON, either one-off with explicit knobs or as a member of
// the paper's category I / II benchmark suites.
//
// Usage:
//
//	tgffgen [-o graph.json] [-category I|II -index 0] |
//	        [-tasks 500 -seed 7 -laxity 1.3 -shape layered ...]
//
// The per-PE tables are characterized for a heterogeneous mesh platform
// (-mesh, default 4x4).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nocsched/internal/diag"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tgffgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("tgffgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "output file (default stdout)")
		meshSpec = fs.String("mesh", "4x4", "mesh dimensions the graph is characterized for")
		category = fs.String("category", "", "generate a paper suite benchmark: I or II")
		index    = fs.Int("index", 0, "suite benchmark index (0-9)")

		seed    = fs.Int64("seed", 1, "RNG seed")
		tasks   = fs.Int("tasks", 500, "number of tasks")
		indeg   = fs.Int("indeg", 3, "max in-degree")
		window  = fs.Int("window", 32, "predecessor locality window (0 = unbounded)")
		types   = fs.Int("types", 20, "number of task types")
		execMin = fs.Int64("exec-min", 40, "min reference execution time")
		execMax = fs.Int64("exec-max", 400, "max reference execution time")
		volMin  = fs.Int64("vol-min", 512, "min edge volume (bits)")
		volMax  = fs.Int64("vol-max", 16384, "max edge volume (bits)")
		laxity  = fs.Float64("laxity", 1.3, "deadline laxity over the longest mean path")
		spread  = fs.Float64("spread", 0.5, "per-type heterogeneity spread")
		shape   = fs.String("shape", "layered", "graph shape: layered or sp (series-parallel)")
	)
	dflags := diag.RegisterProfiling(fs)
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

	w, h, err := noc.ParseMesh(*meshSpec)
	if err != nil {
		return fmt.Errorf("-mesh: %w", err)
	}
	platform, err := noc.NewHeterogeneousMesh(w, h, noc.RouteXY, 256)
	if err != nil {
		return err
	}

	graphShape := tgff.ShapeLayered
	switch *shape {
	case "layered":
	case "sp":
		graphShape = tgff.ShapeSeriesParallel
	default:
		return fmt.Errorf("bad -shape %q (want layered or sp)", *shape)
	}

	var params tgff.Params
	switch *category {
	case "":
		params = tgff.Params{
			Name:                fmt.Sprintf("tgff-seed%d", *seed),
			Seed:                *seed,
			Shape:               graphShape,
			NumTasks:            *tasks,
			MaxInDegree:         *indeg,
			LocalityWindow:      *window,
			TaskTypes:           *types,
			ExecMin:             *execMin,
			ExecMax:             *execMax,
			HeteroSpread:        *spread,
			VolumeMin:           *volMin,
			VolumeMax:           *volMax,
			ControlEdgeFraction: 0.1,
			DeadlineLaxity:      *laxity,
			DeadlineFraction:    1.0,
			Platform:            platform,
		}
	case "I":
		params = tgff.SuiteParams(tgff.CategoryI, *index, platform)
	case "II":
		params = tgff.SuiteParams(tgff.CategoryII, *index, platform)
	default:
		return fmt.Errorf("bad -category %q (want I or II)", *category)
	}

	g, err := tgff.Generate(params)
	if err != nil {
		return err
	}
	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := g.WriteJSON(dst); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tgffgen: %s: %d tasks, %d transactions, %d deadline tasks\n",
		g.Name, g.NumTasks(), g.NumEdges(), len(g.DeadlineTasks()))
	return nil
}
