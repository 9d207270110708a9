// Command resilbench sweeps transient-fault campaigns over TGFF-style
// benchmarks and measures how the end-to-end retransmission protocol
// (internal/sim) trades energy for deadline hits: for each fault rate it
// replays the same corrupted traffic under every retry budget and
// reports deadline-hit-ratio and retry-energy-overhead curves.
//
// Usage:
//
//	resilbench [-graphs 2] [-tasks 80] [-mesh 4x4]
//	           [-rates 0.05,0.1,0.2] [-retries 0,1,2,4]
//	           [-trials 10] [-seed 1] [-laxity 2.0]
//	           [-o BENCH_resilience.json]
//	           [-cpuprofile f] [-memprofile f] [-trace f]
//	           [-metrics] [-metrics-out f] [-trace-out f]
//
// A fault rate r corrupts a fraction r of the schedule's routed
// transactions: each trial draws that many transient link-drop windows,
// each window covering one transaction's transfer on one link of its
// route. The windows for a given (graph, rate, trial) derive from the
// root seed alone — they are identical across retry budgets — so the
// per-budget curves differ only in how the protocol recovers the same
// losses. Deadline outcomes come from sim.AssessImpact: a dropped
// packet starves its consumer and everything downstream, a late
// retransmission delays it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"nocsched/internal/diag"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
	"nocsched/internal/tgff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "resilbench:", err)
		os.Exit(1)
	}
}

// cell aggregates all trials of one (fault rate, retry budget) point.
type cell struct {
	Rate    float64 `json:"rate"`
	Retries int     `json:"retries"`
	Trials  int     `json:"trials"`
	// MeanHitRatio is the mean fraction of deadline-carrying tasks
	// still meeting their deadline after the campaign's losses and
	// retransmission delays — the headline resilience metric.
	MeanHitRatio float64 `json:"mean_hit_ratio"`
	// MeanDropped / MeanRetransmitted count packet fates per trial.
	MeanDropped       float64 `json:"mean_dropped"`
	MeanRetransmitted float64 `json:"mean_retransmitted"`
	// MeanRetryEnergyFrac is the recovery share of the measured
	// communication energy (Eq. 2 accounting of corrupted attempts
	// plus successful reinjections).
	MeanRetryEnergyFrac float64 `json:"mean_retry_energy_frac"`
	// MeanAddedLatency is the mean total latency the protocol added to
	// traffic that still made it through, in cycles per trial.
	MeanAddedLatency float64 `json:"mean_added_latency"`
}

// report is the JSON document resilbench emits (BENCH_resilience.json).
type report struct {
	Mesh          string    `json:"mesh"`
	Graphs        int       `json:"graphs"`
	Tasks         int       `json:"tasks"`
	TrialsPerRate int       `json:"trials_per_rate_per_graph"`
	Seed          int64     `json:"seed"`
	Laxity        float64   `json:"laxity"`
	Rates         []float64 `json:"rates"`
	Retries       []int     `json:"retries"`
	// Cells holds one row per (rate, retry budget) pair, rates outer.
	Cells []cell `json:"cells"`
	// ZeroRetryHitRatio / BestRetryHitRatio summarize the campaign:
	// the mean hit ratio with retransmission disabled versus the best
	// mean over the nonzero retry budgets. Improved reports the strict
	// win of retransmission over dropping.
	ZeroRetryHitRatio float64 `json:"zero_retry_hit_ratio"`
	BestRetryHitRatio float64 `json:"best_retry_hit_ratio"`
	Improved          bool    `json:"improved"`
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("resilbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphs   = fs.Int("graphs", 2, "number of TGFF benchmarks to sweep")
		tasks    = fs.Int("tasks", 80, "tasks per benchmark")
		meshSpec = fs.String("mesh", "4x4", "mesh dimensions, WIDTHxHEIGHT")
		rateSpec = fs.String("rates", "0.05,0.1,0.2", "fault rates: fraction of routed transactions hit by a transient window")
		retrSpec = fs.String("retries", "0,1,2,4", "retry budgets to sweep (0 disables retransmission)")
		trials   = fs.Int("trials", 10, "fault draws per rate per benchmark")
		seed     = fs.Int64("seed", 1, "root seed for graphs and fault draws")
		laxity   = fs.Float64("laxity", 2.0, "deadline laxity of the generated benchmarks")
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
	if *graphs < 1 || *trials < 1 {
		return errors.New("-graphs and -trials must be >= 1")
	}
	rates, err := parseFloats(*rateSpec)
	if err != nil {
		return fmt.Errorf("bad -rates: %w", err)
	}
	for _, r := range rates {
		if !(r > 0 && r <= 1) { // NaN fails this too
			return fmt.Errorf("bad -rates: rate %v outside (0,1]", r)
		}
	}
	budgets, err := parseInts(*retrSpec)
	if err != nil {
		return fmt.Errorf("bad -retries: %w", err)
	}
	hasZero, hasNonzero := false, false
	for _, b := range budgets {
		if b < 0 {
			return fmt.Errorf("bad -retries: negative budget %d", b)
		}
		if b == 0 {
			hasZero = true
		} else {
			hasNonzero = true
		}
	}
	if !hasZero || !hasNonzero {
		return errors.New("-retries must include 0 (the drop baseline) and at least one nonzero budget")
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
		TrialsPerRate: *trials, Seed: *seed, Laxity: *laxity,
		Rates: rates, Retries: budgets,
	}
	for _, r := range rates {
		for _, b := range budgets {
			rep.Cells = append(rep.Cells, cell{Rate: r, Retries: b})
		}
	}
	at := func(ri, bi int) *cell { return &rep.Cells[ri*len(budgets)+bi] }

	for gi := 0; gi < *graphs; gi++ {
		g, err := tgff.Generate(tgff.Params{
			Name: fmt.Sprintf("resilbench-%02d", gi), Seed: *seed*1000 + int64(gi),
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
		s := base.Schedule
		routed := routedTransactions(s)
		fmt.Fprintf(stdout, "benchmark %s: %d tasks, %d routed transactions, fault-free misses %d\n",
			g.Name, g.NumTasks(), len(routed), len(s.DeadlineMisses()))
		if len(routed) == 0 {
			return fmt.Errorf("benchmark %s has no routed transactions to corrupt", g.Name)
		}

		for ri, rate := range rates {
			windows := int(rate*float64(len(routed)) + 0.5)
			if windows < 1 {
				windows = 1
			}
			for trial := 0; trial < *trials; trial++ {
				// The fault draw depends only on (seed, graph, rate,
				// trial): every retry budget replays the very same
				// corrupted traffic.
				rng := rand.New(rand.NewSource(*seed*1_000_003 +
					int64(gi)*10_007 + int64(ri)*101 + int64(trial)))
				faults := drawTransients(rng, s, routed, windows)
				for bi, budget := range budgets {
					res, err := sim.Replay(s, sim.Options{
						Faults:    faults,
						Retx:      sim.RetxOptions{MaxRetries: budget},
						Telemetry: telem,
					})
					if err != nil {
						return fmt.Errorf("benchmark %s rate %v retries %d: %w",
							g.Name, rate, budget, err)
					}
					im, err := sim.AssessImpact(s, res)
					if err != nil {
						return err
					}
					c := at(ri, bi)
					c.Trials++
					c.MeanHitRatio += im.HitRatio()
					c.MeanDropped += float64(res.Failures)
					c.MeanRetransmitted += float64(res.Retransmitted)
					if res.MeasuredCommEnergy > 0 {
						c.MeanRetryEnergyFrac += res.RetryEnergy / res.MeasuredCommEnergy
					}
					c.MeanAddedLatency += float64(res.RetryAddedLatency)
				}
			}
		}
	}

	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Trials > 0 {
			n := float64(c.Trials)
			c.MeanHitRatio /= n
			c.MeanDropped /= n
			c.MeanRetransmitted /= n
			c.MeanRetryEnergyFrac /= n
			c.MeanAddedLatency /= n
		}
	}
	// Campaign summary: drop baseline versus the best retry budget,
	// averaged over rates (every cell has the same trial count).
	var zero, best float64
	bestSet := false
	for bi, b := range budgets {
		var sum float64
		for ri := range rates {
			sum += at(ri, bi).MeanHitRatio
		}
		sum /= float64(len(rates))
		if b == 0 {
			zero = sum
		} else if !bestSet || sum > best {
			best, bestSet = sum, true
		}
	}
	rep.ZeroRetryHitRatio = zero
	rep.BestRetryHitRatio = best
	rep.Improved = best > zero

	fmt.Fprintf(stdout, "\n%6s %8s %7s %10s %9s %8s %11s %9s\n",
		"rate", "retries", "trials", "hit-ratio", "dropped", "retx", "retry-en%", "latency")
	for i := range rep.Cells {
		c := &rep.Cells[i]
		fmt.Fprintf(stdout, "%6.2f %8d %7d %9.1f%% %9.1f %8.1f %10.1f%% %9.0f\n",
			c.Rate, c.Retries, c.Trials, 100*c.MeanHitRatio, c.MeanDropped,
			c.MeanRetransmitted, 100*c.MeanRetryEnergyFrac, c.MeanAddedLatency)
	}
	fmt.Fprintf(stdout, "\nzero-retry hit ratio %.1f%%, best retry budget %.1f%% (improved: %v)\n",
		100*rep.ZeroRetryHitRatio, 100*rep.BestRetryHitRatio, rep.Improved)

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
		fmt.Fprintf(stdout, "report written to %s\n", *outPath)
	}
	return sess.WriteReport(stdout)
}

// routedTransactions returns the indices of schedule transactions that
// actually cross the network (non-local, non-empty route) — the traffic
// a transient link window can corrupt.
func routedTransactions(s *sched.Schedule) []int {
	var routed []int
	for i := range s.Transactions {
		if len(s.Transactions[i].Route) > 0 {
			routed = append(routed, i)
		}
	}
	return routed
}

// drawTransients draws one trial's transient windows: each targets a
// routed transaction, opening a drop window on one link of its route
// that covers the whole scheduled transfer (plus the wormhole pipeline
// fill), so the first attempt is corrupted and only retransmission can
// save the packet. Windows never duplicate a (link, cycle) pair — the
// simulator rejects duplicate fault entries.
func drawTransients(rng *rand.Rand, s *sched.Schedule, routed []int, n int) []sim.Fault {
	faults := make([]sim.Fault, 0, n)
	type key struct {
		link  noc.LinkID
		cycle int64
	}
	seen := make(map[key]bool, n)
	for drawn, attempts := 0, 0; drawn < n && attempts < 16*n+64; attempts++ {
		tr := &s.Transactions[routed[rng.Intn(len(routed))]]
		l := tr.Route[rng.Intn(len(tr.Route))]
		k := key{l, tr.Start}
		if seen[k] {
			continue
		}
		seen[k] = true
		faults = append(faults, sim.Fault{
			Kind:     sim.FaultTransientLink,
			Link:     l,
			Cycle:    tr.Start,
			Duration: tr.Finish - tr.Start + int64(len(tr.Route)) + 4,
		})
		drawn++
	}
	return faults
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}
