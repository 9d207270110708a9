// Command experiments regenerates the tables and figures of the paper's
// evaluation (Sec. 6) plus this repository's ablation studies.
//
// Usage:
//
//	experiments [-run name[,name...]] [-quick]
//	            [-cpuprofile f] [-memprofile f] [-trace f]
//
// The profiler flags are the shared diagnostics set (internal/diag).
// The per-run telemetry flags (-metrics, -trace-out) live on easched
// and schedbench, whose scheduler options are reachable from the
// command line; the experiment suites fix their options internally.
//
// where name is one of: fig5, fig6, table1, table2, table3, fig7, hops,
// repair, weights, contention, routing, honeycomb, scaling, laxity, all
// (default all). -quick trims suite sizes and sweep resolution for a
// fast smoke run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nocsched/internal/ctg"
	"nocsched/internal/diag"
	"nocsched/internal/experiments"
	"nocsched/internal/msb"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runSel := fs.String("run", "all", "experiments to run (comma separated): fig5 fig6 table1 table2 table3 fig7 hops repair weights contention routing honeycomb scaling laxity baselines pipeline mapping all")
	quick := fs.Bool("quick", false, "reduced suite sizes for a fast smoke run")
	csvDir := fs.String("csv", "", "also write each experiment's data as CSV into this directory")
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

	count := 0 // full suites
	if *quick {
		count = 3
	}
	selected := strings.Split(*runSel, ",")
	known := map[string]bool{
		"all": true, "fig5": true, "fig6": true, "table1": true, "table2": true,
		"table3": true, "fig7": true, "hops": true, "repair": true, "weights": true,
		"contention": true, "routing": true, "honeycomb": true, "scaling": true,
		"laxity": true, "baselines": true, "pipeline": true, "mapping": true,
	}
	for _, s := range selected {
		if !known[s] {
			return fmt.Errorf("unknown experiment %q", s)
		}
	}

	// csvOut opens <csvDir>/<name>.csv when -csv is set and hands it to
	// write; a missing -csv makes it a no-op.
	csvOut := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	if want("fig5") {
		res, err := experiments.RunRandomSuite(tgff.CategoryI, count)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Fig. 5 ==")
		res.Render(stdout)
		fmt.Fprintln(stdout)
		if err := csvOut("fig5", res.WriteCSV); err != nil {
			return err
		}
	}
	if want("fig6") {
		res, err := experiments.RunRandomSuite(tgff.CategoryII, count)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Fig. 6 ==")
		res.Render(stdout)
		fmt.Fprintln(stdout)
		if err := csvOut("fig6", res.WriteCSV); err != nil {
			return err
		}
	}
	for _, tbl := range []struct {
		name   string
		system experiments.MSBSystem
		label  string
	}{
		{"table1", experiments.MSBEncoder, "Table 1"},
		{"table2", experiments.MSBDecoder, "Table 2"},
		{"table3", experiments.MSBIntegrated, "Table 3"},
	} {
		if !want(tbl.name) {
			continue
		}
		res, err := experiments.RunMSB(tbl.system)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== %s ==\n", tbl.label)
		res.Render(stdout)
		fmt.Fprintln(stdout)
		if err := csvOut(tbl.name, res.WriteCSV); err != nil {
			return err
		}
	}
	if want("fig7") {
		var ratios []float64
		if *quick {
			ratios = []float64{1.0, 1.4, 1.8}
		}
		points, err := experiments.RunTradeoff(ratios)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Fig. 7 ==")
		experiments.RenderTradeoff(stdout, points)
		fmt.Fprintln(stdout)
		if err := csvOut("fig7", func(w io.Writer) error {
			return experiments.TradeoffCSV(w, points)
		}); err != nil {
			return err
		}
	}
	if want("hops") {
		d, err := experiments.RunDecomposition("foreman")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== E7: energy decomposition and average hops ==")
		d.Render(stdout)
		fmt.Fprintln(stdout)
	}
	if want("repair") {
		for _, cat := range []tgff.Category{tgff.CategoryI, tgff.CategoryII} {
			study, err := experiments.RunRepairStudy(cat, count)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "== E8: search-and-repair ==")
			study.Render(stdout)
			fmt.Fprintln(stdout)
		}
	}
	small := count
	if small == 0 {
		small = 5
	}
	if want("weights") {
		rows, err := experiments.RunWeightAblation(small)
		if err != nil {
			return err
		}
		experiments.RenderWeightAblation(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if want("contention") {
		rows, err := experiments.RunContentionAblation(small)
		if err != nil {
			return err
		}
		experiments.RenderContentionAblation(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if want("routing") {
		rows, err := experiments.RunRoutingAblation(small)
		if err != nil {
			return err
		}
		experiments.RenderRoutingAblation(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if want("baselines") {
		rows, err := experiments.RunBaselines(small)
		if err != nil {
			return err
		}
		experiments.RenderBaselines(stdout, rows)
		fmt.Fprintln(stdout)
		if err := csvOut("baselines", func(w io.Writer) error {
			return experiments.BaselinesCSV(w, rows)
		}); err != nil {
			return err
		}
	}
	if want("mapping") {
		rows, err := experiments.RunMappingStudy(small)
		if err != nil {
			return err
		}
		experiments.RenderMappingStudy(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if want("pipeline") {
		var periods []int64
		if *quick {
			periods = []int64{10000, 5000}
		}
		points, err := experiments.RunPipelining(periods)
		if err != nil {
			return err
		}
		experiments.RenderPipelining(stdout, points)
		fmt.Fprintln(stdout)
		if err := csvOut("pipeline", func(w io.Writer) error {
			return experiments.PipeliningCSV(w, points)
		}); err != nil {
			return err
		}
	}
	if want("laxity") {
		samples := 3
		var ladder []float64
		if *quick {
			samples = 2
			ladder = []float64{0.9, 1.3}
		}
		points, err := experiments.RunLaxitySweep(ladder, samples)
		if err != nil {
			return err
		}
		experiments.RenderLaxitySweep(stdout, points)
		fmt.Fprintln(stdout)
		if err := csvOut("laxity", func(w io.Writer) error {
			return experiments.LaxityCSV(w, points)
		}); err != nil {
			return err
		}
	}
	if want("scaling") {
		var sizes []int
		if *quick {
			sizes = []int{50, 100}
		}
		rows, err := experiments.RunScaling(sizes)
		if err != nil {
			return err
		}
		experiments.RenderScaling(stdout, rows)
		fmt.Fprintln(stdout)
		if err := csvOut("scaling", func(w io.Writer) error {
			return experiments.ScalingCSV(w, rows)
		}); err != nil {
			return err
		}
	}
	if want("honeycomb") {
		clip, err := msb.ClipByName("foreman")
		if err != nil {
			return err
		}
		rows, err := experiments.RunHoneycomb(func(p *noc.Platform) (*ctg.Graph, error) {
			return msb.Integrated(clip, p)
		}, 3, 3)
		if err != nil {
			return err
		}
		experiments.RenderHoneycomb(stdout, rows)
		fmt.Fprintln(stdout)
	}
	return nil
}
