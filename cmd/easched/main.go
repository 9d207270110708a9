// Command easched schedules a Communication Task Graph (JSON, see
// cmd/tgffgen or Graph.WriteJSON) onto a heterogeneous mesh NoC using
// the EAS, EAS-base or EDF scheduler, and reports energy, deadline and
// timing results.
//
// Usage:
//
//	easched -graph app.json [-mesh 4x4] [-routing xy] [-bandwidth 256]
//	        [-sched eas] [-gantt] [-verify] [-util]
//	        [-json-out sched.json] [-dot-out graph.dot]
//	        [-metrics] [-metrics-out metrics.json] [-trace-out trace.json]
//
// -metrics appends a telemetry report (probe counts, ready-list depth,
// energy breakdown, link occupancy) to the output; -metrics-out writes
// the same data as JSON. -trace-out writes a Chrome trace_event file —
// scheduler phase spans plus the committed schedule as one track per PE
// and per link — loadable in Perfetto (see README, "Observability").
//
// The exit status is 0 when all deadlines are met, 1 otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nocsched/internal/ctg"
	"nocsched/internal/diag"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
)

// errDeadlineMiss marks a successful run whose schedule misses
// deadlines (exit status 1, not an error message).
var errDeadlineMiss = errors.New("schedule misses deadlines")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errDeadlineMiss):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "easched:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("easched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "path to the CTG JSON file (required)")
		platSpec  = fs.String("platform", "", "platform spec JSON file (overrides -mesh/-routing/-bandwidth)")
		meshSpec  = fs.String("mesh", "4x4", "mesh dimensions, WIDTHxHEIGHT")
		routing   = fs.String("routing", "xy", "routing scheme: xy or yx")
		bandwidth = fs.Int64("bandwidth", 256, "link bandwidth in bits per time unit")
		scheduler = fs.String("sched", "eas", "scheduler: eas, eas-base or edf")
		gantt     = fs.Bool("gantt", false, "print a per-PE Gantt chart")
		verify    = fs.Bool("verify", false, "replay the schedule on the flit-level wormhole simulator")
		util      = fs.Bool("util", false, "print per-PE and per-link utilization")
		jsonOut   = fs.String("json-out", "", "write the schedule placements as JSON to this file")
		dotOut    = fs.String("dot-out", "", "write the task graph in Graphviz DOT format to this file")
		svgOut    = fs.String("svg-out", "", "write the schedule as an SVG Gantt chart to this file")
		buffers   = fs.Bool("buffers", false, "print per-PE message buffer requirements")
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
	if *graphPath == "" {
		fs.Usage()
		return errors.New("missing -graph")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := ctg.ReadJSON(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *graphPath, err)
	}

	var platform *noc.Platform
	if *platSpec != "" {
		pf, err := os.Open(*platSpec)
		if err != nil {
			return err
		}
		platform, err = noc.ReadPlatformSpec(pf)
		pf.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", *platSpec, err)
		}
	} else {
		w, h, err := noc.ParseMesh(*meshSpec)
		if err != nil {
			return fmt.Errorf("-mesh: %w", err)
		}
		scheme := noc.RouteXY
		switch *routing {
		case "xy":
		case "yx":
			scheme = noc.RouteYX
		default:
			return fmt.Errorf("bad -routing %q (want xy or yx)", *routing)
		}
		platform, err = noc.NewHeterogeneousMesh(w, h, scheme, *bandwidth)
		if err != nil {
			return err
		}
	}
	if g.NumPEs() != platform.NumPEs() {
		return fmt.Errorf("graph %q is characterized for %d PEs but the %s platform has %d",
			g.Name, g.NumPEs(), platform.Topo.Name(), platform.NumPEs())
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		return err
	}

	var s *sched.Schedule
	switch *scheduler {
	case "eas":
		r, err := eas.Schedule(g, acg, eas.Options{Telemetry: telem})
		if err != nil {
			return err
		}
		s = r.Schedule
		if r.RepairStats.Ran {
			fmt.Fprintf(stdout, "search-and-repair: %d misses -> %d (swaps %d, migrations %d, %d moves tried, %d abandoned early)\n",
				r.RepairStats.InitialMisses, r.RepairStats.FinalMisses,
				r.RepairStats.SwapsAccepted, r.RepairStats.MigrationsAccepted, r.RepairStats.MovesTried,
				r.RepairStats.MovesAbandoned)
		}
	case "eas-base":
		r, err := eas.Schedule(g, acg, eas.Options{DisableRepair: true, Telemetry: telem})
		if err != nil {
			return err
		}
		s = r.Schedule
	case "edf":
		s, err = edf.ScheduleOpts(g, acg, edf.Options{Telemetry: telem})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("bad -sched %q (want eas, eas-base or edf)", *scheduler)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("scheduler produced an invalid schedule: %w", err)
	}

	b := s.Breakdown()
	fmt.Fprintf(stdout, "graph:         %s (%d tasks, %d transactions)\n", g.Name, g.NumTasks(), g.NumEdges())
	fmt.Fprintf(stdout, "platform:      %s, bandwidth %d bit/tu\n", platform.Topo.Name(), platform.LinkBandwidth)
	fmt.Fprintf(stdout, "scheduler:     %s (%.1f ms)\n", s.Algorithm, float64(s.Elapsed.Microseconds())/1000)
	fmt.Fprintf(stdout, "energy:        %.1f nJ total = %.1f computation + %.1f communication\n",
		b.Total, b.Computation, b.Communication)
	fmt.Fprintf(stdout, "makespan:      %d time units\n", b.Makespan)
	fmt.Fprintf(stdout, "avg hops/pkt:  %.2f\n", b.AvgHops)
	fmt.Fprintf(stdout, "deadline miss: %d\n", b.Misses)
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Gantt())
	}
	if *util {
		fmt.Fprintln(stdout)
		s.RenderUtilization(stdout, 10)
	}
	if *verify {
		res, err := sim.Replay(s, sim.Options{Telemetry: telem})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		late := res.LateDeliveries(s)
		fmt.Fprintf(stdout, "replay:        %d packets, %d stall cycles, %d late deliveries, measured comm energy %.1f nJ\n",
			len(res.Packets), res.TotalStalls, len(late), res.MeasuredCommEnergy)
		if res.TraceErr != nil {
			return fmt.Errorf("replay trace: %w", res.TraceErr)
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, s.WriteJSON); err != nil {
			return err
		}
	}
	if *dotOut != "" {
		if err := writeTo(*dotOut, g.WriteDOT); err != nil {
			return err
		}
	}
	if *svgOut != "" {
		if err := writeTo(*svgOut, s.WriteSVG); err != nil {
			return err
		}
	}
	if *buffers {
		fmt.Fprintln(stdout)
		s.RenderBufferRequirements(stdout)
	}
	// Telemetry artifacts cover the final schedule and are written even
	// when deadlines are missed.
	s.EmitChromeTrace(sess.ChromeSink())
	if dflags.Metrics {
		fmt.Fprintln(stdout)
		if rerr := sess.WriteReport(stdout); rerr != nil {
			return rerr
		}
	}
	if b.Misses > 0 {
		return errDeadlineMiss
	}
	return nil
}

// writeTo creates path and streams write into it, closing cleanly.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
