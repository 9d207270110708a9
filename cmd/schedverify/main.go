// Command schedverify checks a schedule JSON artifact (see easched
// -json-out or Schedule.WriteJSON) against the problem instance it was
// built for, using the independent conformance oracle in
// internal/verify: task precedence with communication delays along the
// recorded routes, PE mutual exclusion (Definition 4), per-link slot
// capacity (Definition 3), route validity, hard deadlines, and
// bit-exact Eq. (2)/(3) energy accounting.
//
// Usage:
//
//	schedverify -graph app.json -schedule sched.json
//	            [-mesh 4x4] [-routing xy] [-bandwidth 256]
//	            [-platform spec.json]
//	            [-json] [-max N] [-ignore-deadlines]
//
// The schedule is loaded leniently: malformed placements are reported
// as typed findings rather than load errors. With -ignore-deadlines,
// deadline findings are still printed but do not affect the exit status
// (mirroring Validate vs. Feasible: EAS-base legitimately emits
// deadline-missing but well-formed schedules).
//
// The exit status is 0 for a conformant schedule, 1 when the oracle
// reports findings, and 2 on usage or I/O errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nocsched/internal/ctg"
	"nocsched/internal/diag"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/verify"
)

// errFindings marks a completed verification that found violations
// (exit status 1, not an error message).
var errFindings = errors.New("schedule has findings")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errFindings):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "schedverify:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("schedverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "path to the CTG JSON file (required)")
		schedPath = fs.String("schedule", "", "path to the schedule JSON file (required)")
		platSpec  = fs.String("platform", "", "platform spec JSON file (overrides -mesh/-routing/-bandwidth)")
		meshSpec  = fs.String("mesh", "4x4", "mesh dimensions, WIDTHxHEIGHT")
		routing   = fs.String("routing", "xy", "routing scheme: xy or yx")
		bandwidth = fs.Int64("bandwidth", 256, "link bandwidth in bits per time unit")
		jsonOut   = fs.Bool("json", false, "print the report as JSON instead of text")
		maxFind   = fs.Int("max", 0, "cap on reported findings (0 = default)")
		ignoreDl  = fs.Bool("ignore-deadlines", false, "report deadline misses but do not fail on them")
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
	if *graphPath == "" || *schedPath == "" {
		fs.Usage()
		return errors.New("missing -graph or -schedule")
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

	sf, err := os.Open(*schedPath)
	if err != nil {
		return err
	}
	s, err := sched.ReadJSONLenient(sf, g, acg)
	sf.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *schedPath, err)
	}

	rep := verify.CheckOptions(s, verify.Options{MaxFindings: *maxFind})
	if *jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}
	} else if rep.OK() {
		fmt.Fprintf(stdout, "ok: %q conforms (%d tasks, %d transactions)\n",
			*schedPath, len(s.Tasks), len(s.Transactions))
	} else {
		fmt.Fprintf(stdout, "%d findings:\n%s", len(rep.Findings), rep)
	}
	failing := rep.Findings
	if *ignoreDl {
		failing = rep.Structural()
	}
	if len(failing) > 0 {
		return errFindings
	}
	return nil
}
