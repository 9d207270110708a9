// Package harness is the cross-scheduler differential conformance
// harness: it runs EAS, EDF, and DLS over a workloadgen corpus, feeds
// every accepted schedule through the verify oracle, and cross-checks
// the flit-level simulator's replay — stall-free delivery, on-time
// arrivals, and flit-quantized energy — against the scheduler-reported
// values. A schedule that any scheduler emits and the oracle or the
// simulator rejects is a correctness bug in exactly one of the three
// (scheduler, oracle, simulator), which is the point: three
// independent derivations of the same invariants triangulate the
// culprit.
package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"nocsched/internal/batch"
	"nocsched/internal/eas"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
	"nocsched/internal/verify"
	"nocsched/internal/verify/workloadgen"
)

// Schedulers lists the algorithms the harness drives, in run order.
var Schedulers = []string{"eas", "edf", "dls"}

// Options tunes one harness run.
type Options struct {
	// Schedulers restricts the algorithms run (default: all of
	// Schedulers).
	Schedulers []string
	// SkipSim disables the flit-level replay cross-check (the oracle
	// still runs).
	SkipSim bool
	// EAS forwards scheduler options to the EAS runs.
	EAS eas.Options
	// Workers is the batch engine's instance-level parallelism; <= 0
	// selects GOMAXPROCS. Outcomes are identical at any worker count
	// (the batch engine's determinism guarantee), so this only changes
	// how fast the harness finishes.
	Workers int
}

// Outcome is the verdict for one (workload, scheduler) pair.
type Outcome struct {
	Workload  string
	Scheduler string
	// Err is a scheduler failure: no schedule was produced at all.
	Err      error
	Schedule *sched.Schedule
	// Report is the oracle's verdict on the accepted schedule.
	Report *verify.Report
	// StructuralFindings counts oracle findings other than
	// ClassDeadline. Deadline findings are legitimate scheduler
	// outcomes on infeasible workloads (DLS ignores deadlines; EAS
	// base passes may miss), so they are consistency-checked against
	// Schedule.DeadlineMisses instead of zero-gated.
	StructuralFindings int
	// DeadlineConsistent reports that the oracle's ClassDeadline
	// findings name exactly the tasks Schedule.DeadlineMisses reports.
	DeadlineConsistent bool

	// Simulation cross-check (zero values when SkipSim or Err).
	SimErr error
	// SimStalls is the replay's total stall cycles. Small values are
	// legitimate wormhole pipeline-drain artifacts (a packet's tail
	// still occupies downstream hops when its slot ends, which the
	// analytic model abstracts away), so the gate bounds their effect
	// through the slack and lateness checks rather than requiring
	// zero.
	SimStalls int64
	// SimLate counts packets arriving after their receiver's start by
	// more than their own observed stall cycles — lateness the
	// wormhole drain effect cannot explain, i.e. a timing-accounting
	// bug in either the schedule or the simulator. (Drain-explained
	// lateness is legitimate: the analytic model reserves a route's
	// links as one simultaneous slot, while a real packet's tail still
	// occupies downstream hops after the slot ends, so back-to-back
	// slot packings can stall a follower a few cycles. The oracle's
	// Definition 3 check separately proves the slots themselves never
	// overlapped.)
	SimLate int
	// SimSlackViolations counts packets delivered later than scheduled
	// finish + pipeline fill + their own stall cycles.
	SimSlackViolations int
	// SimEnergyErr is the relative error between the replay's measured
	// flit energy and the analytic flit-quantized expectation.
	SimEnergyErr float64
}

// simEnergyTol is the relative tolerance for the flit-energy
// cross-check: the replay accumulates per-flit terms in delivery order
// while the expectation sums per-packet, so the two may differ by
// float accumulation error but nothing more.
const simEnergyTol = 1e-9

// Run drives every scheduler over every workload and returns one
// Outcome per pair, in (workload, scheduler) order.
//
// Scheduling runs through the batch engine: one instance per pair,
// fanned out over opts.Workers workers with reused builders. The
// engine's determinism guarantee is what keeps this a pure performance
// change — results arrive in submission order with schedules
// bit-identical to the serial fresh-builder loop this used to be,
// which TestRunMatchesSerialLoop pins.
func Run(ws []workloadgen.Workload, opts Options) []Outcome {
	schedulers := opts.Schedulers
	if len(schedulers) == 0 {
		schedulers = Schedulers
	}
	instances := make([]batch.Instance, 0, len(ws)*len(schedulers))
	for _, w := range ws {
		for _, name := range schedulers {
			instances = append(instances, batch.Instance{
				Name:      w.Name,
				Graph:     w.Graph,
				ACG:       w.ACG,
				Algorithm: name,
				EAS:       opts.EAS,
			})
		}
	}
	eng := batch.New(batch.Options{Workers: opts.Workers})
	// The context is never cancelled, so Run cannot fail; every
	// submitted instance yields exactly one result, in order.
	results, _ := eng.Run(context.Background(), instances)
	out := make([]Outcome, 0, len(results))
	for _, r := range results {
		o := Outcome{Workload: r.Name, Scheduler: r.Algorithm}
		if r.Err != nil {
			o.Err = r.Err
			out = append(out, o)
			continue
		}
		s := r.Schedule
		o.Schedule = s
		o.Report = verify.Check(s)
		o.StructuralFindings = len(o.Report.Structural())
		o.DeadlineConsistent = deadlineConsistent(o.Report, s)
		if !opts.SkipSim {
			crossCheckSim(&o, s)
		}
		out = append(out, o)
	}
	return out
}

// deadlineConsistent cross-checks the oracle's deadline findings
// against the schedule's own DeadlineMisses accessor: same tasks, same
// count.
func deadlineConsistent(r *verify.Report, s *sched.Schedule) bool {
	misses := s.DeadlineMisses()
	findings := r.ByClass(verify.ClassDeadline)
	if len(findings) != len(misses) {
		return false
	}
	// Both are produced in ascending task-ID order.
	for i, f := range findings {
		if f.Task != misses[i] {
			return false
		}
	}
	return true
}

// crossCheckSim replays the schedule flit by flit and records every
// divergence between the simulated network and the analytic model the
// scheduler optimized against.
func crossCheckSim(o *Outcome, s *sched.Schedule) {
	res, err := sim.Replay(s, sim.Options{})
	if err != nil {
		o.SimErr = err
		return
	}
	o.SimStalls = res.TotalStalls
	for i := range res.Packets {
		p := &res.Packets[i]
		if -p.Slack() > p.StallCycles {
			o.SimSlackViolations++
		}
		dst := s.Graph.Edge(p.Edge).Dst
		if over := p.Delivered - int64(p.Hops) - s.Tasks[dst].Start; over > p.StallCycles {
			o.SimLate++
		}
	}
	want := sim.ExpectedFlitEnergy(s)
	if want > 0 {
		o.SimEnergyErr = math.Abs(res.MeasuredCommEnergy-want) / want
	} else {
		o.SimEnergyErr = math.Abs(res.MeasuredCommEnergy)
	}
}

// Gate returns nil when every outcome is conformant: the scheduler
// produced a schedule, the oracle found no structural violations, the
// deadline findings agree with the schedule's own accounting, and the
// replay ran stall-free, on time, and energy-consistent. Otherwise it
// returns an error naming every non-conformant pair.
func Gate(outcomes []Outcome) error {
	var bad []string
	for i := range outcomes {
		o := &outcomes[i]
		tag := o.Workload + "/" + o.Scheduler
		switch {
		case o.Err != nil:
			bad = append(bad, fmt.Sprintf("%s: scheduler error: %v", tag, o.Err))
		case o.StructuralFindings > 0:
			first := "(none)"
			if fs := o.Report.Structural(); len(fs) > 0 {
				first = fs[0].String()
			}
			bad = append(bad, fmt.Sprintf("%s: %d structural oracle findings; first: %s",
				tag, o.StructuralFindings, first))
		case !o.DeadlineConsistent:
			bad = append(bad, fmt.Sprintf("%s: oracle deadline findings disagree with Schedule.DeadlineMisses", tag))
		case o.SimErr != nil:
			bad = append(bad, fmt.Sprintf("%s: replay error: %v", tag, o.SimErr))
		case o.SimLate > 0:
			bad = append(bad, fmt.Sprintf("%s: %d packets late beyond their observed stalls", tag, o.SimLate))
		case o.SimSlackViolations > 0:
			bad = append(bad, fmt.Sprintf("%s: %d packets past scheduled finish + pipeline fill + stalls", tag, o.SimSlackViolations))
		case o.SimEnergyErr > simEnergyTol:
			bad = append(bad, fmt.Sprintf("%s: replay energy off by relative %g", tag, o.SimEnergyErr))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("harness: %d non-conformant outcomes:\n  %s",
		len(bad), strings.Join(bad, "\n  "))
}
