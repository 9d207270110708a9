package fault

import (
	"fmt"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/sched"
)

// Metric names published into opts.EAS.Telemetry's registry by Recover
// (all counts, accumulated across recoveries on a shared registry).
const (
	MetricRecoveries      = "fault_recoveries_total"
	MetricStranded        = "fault_stranded_tasks_total"
	MetricSevered         = "fault_severed_transactions_total"
	MetricMigrated        = "fault_tasks_migrated_total"
	MetricFullReschedules = "fault_full_reschedules_total"
)

// Options configures Recover. The zero value re-maps with the layout
// repair pipeline and falls back to a full EAS re-run when misses
// survive.
type Options struct {
	// EAS configures the repair moves and the full-reschedule fallback
	// (weight, repair budget, contention model).
	EAS eas.Options
	// DisableFullFallback keeps recovery incremental: when the
	// layout-repair pipeline cannot eliminate every deadline miss, the
	// best repaired schedule is returned as-is instead of re-running
	// EAS from scratch on the degraded instance.
	DisableFullFallback bool
}

// Stats reports what recovery did and what it cost.
type Stats struct {
	// StrandedTasks / SeveredTransactions are the triage counts: tasks
	// mapped on dead PEs and transactions routed over dead hardware.
	StrandedTasks       int
	SeveredTransactions int
	// TasksMigrated counts tasks whose PE differs between the fault-
	// free and the recovered schedule (>= StrandedTasks when repair
	// moved extra tasks to claw back deadlines).
	TasksMigrated int
	// FullReschedule is true when the full EAS re-run fallback
	// produced the returned schedule.
	FullReschedule bool
	// MissesBefore / MissesAfter are deadline-miss counts of the
	// fault-free input schedule and of the recovered schedule.
	MissesBefore, MissesAfter int
	// EnergyBefore / EnergyAfter compare total schedule energy across
	// the fault (nJ).
	EnergyBefore, EnergyAfter float64
	// RepairStats reports the search-and-repair work of the chosen
	// pipeline.
	RepairStats eas.RepairStats
}

// EnergyOverhead returns the fractional energy cost of surviving the
// fault: (after - before) / before. Zero when the input schedule had
// zero energy.
func (st Stats) EnergyOverhead() float64 {
	if st.EnergyBefore == 0 {
		return 0
	}
	return (st.EnergyAfter - st.EnergyBefore) / st.EnergyBefore
}

// Recovery is the outcome of recovering a schedule from a scenario.
type Recovery struct {
	// Schedule is the recovered schedule, bound to Graph and
	// Degraded.ACG (not to the fault-free originals).
	Schedule *sched.Schedule
	// Graph is the degraded CTG the schedule was built against (dead
	// PEs marked incapable).
	Graph *ctg.Graph
	// Degraded is the platform the schedule runs on.
	Degraded *Degraded
	// Triage is what the scenario invalidated in the input schedule.
	Triage Triage
	// Stats summarizes the recovery.
	Stats Stats
}

// Feasible reports whether the recovered schedule meets every deadline.
func (r *Recovery) Feasible() bool { return r.Stats.MissesAfter == 0 }

// Recover re-maps a fault-free schedule onto the platform degraded by
// the scenario:
//
//  1. the scenario is applied (Degrade) and the schedule triaged;
//  2. stranded tasks are migrated off dead PEs onto their cheapest
//     surviving capable PE (execution plus communication energy, the
//     GTM destination order), keeping every other placement;
//  3. the amended layout is re-timed on the degraded platform —
//     severed transactions pick up their detour routes here — and
//     Step-3 search-and-repair (LTS swaps + GTM migrations) runs if
//     the fault introduced deadline misses;
//  4. if misses survive repair, a full EAS re-run on the degraded
//     instance is tried and the better schedule wins.
//
// Unrecoverable scenarios return typed errors: ErrDisconnected when
// the surviving fabric is split, ErrNoCapablePE when a task has no
// surviving PE. A recoverable scenario always yields a schedule valid
// on the degraded platform; Stats.MissesAfter reports whether it also
// meets every deadline.
func Recover(s *sched.Schedule, sc *Scenario, opts Options) (*Recovery, error) {
	if s == nil {
		return nil, fmt.Errorf("fault: nil schedule")
	}
	scName := ""
	if sc != nil {
		scName = sc.Name
	}
	endSpan := opts.EAS.Telemetry.T().Span("recover:"+scName, "fault recovery")
	defer endSpan()
	d, err := Degrade(s.ACG.Platform(), s.ACG.Model(), sc)
	if err != nil {
		return nil, err
	}
	return recoverOn(d, s, s.Graph, opts)
}

// recoverOn runs steps 2-4 of Recover against an already-degraded
// platform and a caller-chosen graph (possibly with tasks shed), so
// graceful degradation can retry recovery without re-applying the
// scenario.
func recoverOn(d *Degraded, s *sched.Schedule, g *ctg.Graph, opts Options) (*Recovery, error) {
	sc := d.Scenario
	dg, err := d.DegradeGraph(g)
	if err != nil {
		return nil, err
	}
	triage := d.Triage(s)
	rec := &Recovery{Graph: dg, Degraded: d, Triage: triage}
	rec.Stats = Stats{
		StrandedTasks:       len(triage.StrandedTasks),
		SeveredTransactions: len(triage.SeveredTransactions),
		MissesBefore:        len(s.DeadlineMisses()),
		EnergyBefore:        s.TotalEnergy(),
	}

	// Step 2: evict stranded tasks. Destinations in increasing
	// execution-plus-communication energy (the paper's GTM order),
	// communication priced against neighbors' current homes; edges to
	// neighbors that are themselves stranded are skipped — they move
	// too, so their old coordinates carry no information.
	assign := make([]int, dg.NumTasks())
	for i := range s.Tasks {
		assign[i] = s.Tasks[i].PE
	}
	order := s.PEOrder()
	for _, t := range triage.StrandedTasks {
		dst, err := cheapestAlivePE(dg, d, assign, t)
		if err != nil {
			return nil, err
		}
		moveTask(s, order, assign, t, dst)
	}

	// Step 3: re-time the amended layout on the degraded platform and
	// repair; an inconsistent layout (cross-PE ordering cycle created
	// by the evictions) just forces the full fallback.
	best, berr := eas.RescheduleLayout(dg, d.ACG, assign, order, opts.EAS)
	if berr == nil {
		rec.Stats.RepairStats = best.RepairStats
	}

	// Step 4: full EAS re-run when incremental recovery failed or
	// still misses deadlines.
	needFull := berr != nil || !best.Schedule.Feasible()
	if needFull && !opts.DisableFullFallback {
		if full, ferr := eas.Schedule(dg, d.ACG, opts.EAS); ferr == nil {
			if berr != nil || eas.MetricBetter(full.Schedule, best.Schedule) {
				best, berr = full, nil
				rec.Stats.FullReschedule = true
				rec.Stats.RepairStats = full.RepairStats
			}
		}
	}
	if berr != nil {
		return nil, fmt.Errorf("fault: recovery from scenario %q failed: %w", sc.Name, berr)
	}

	rec.Schedule = best.Schedule
	rec.Stats.MissesAfter = len(best.Schedule.DeadlineMisses())
	rec.Stats.EnergyAfter = best.Schedule.TotalEnergy()
	for i := range best.Schedule.Tasks {
		if best.Schedule.Tasks[i].PE != s.Tasks[i].PE {
			rec.Stats.TasksMigrated++
		}
	}
	if r := opts.EAS.Telemetry.R(); r != nil {
		r.Counter(MetricRecoveries).Inc()
		r.Counter(MetricStranded).Add(int64(rec.Stats.StrandedTasks))
		r.Counter(MetricSevered).Add(int64(rec.Stats.SeveredTransactions))
		r.Counter(MetricMigrated).Add(int64(rec.Stats.TasksMigrated))
		if rec.Stats.FullReschedule {
			r.Counter(MetricFullReschedules).Inc()
		}
	}
	return rec, nil
}

// cheapestAlivePE picks the surviving capable PE with the lowest
// execution-plus-communication energy for task t under the current
// (partially amended) assignment. Edges to neighbors still sitting on
// dead PEs are ignored: those neighbors are later in the eviction
// order and their old coordinates carry no information.
func cheapestAlivePE(g *ctg.Graph, d *Degraded, assign []int, t ctg.TaskID) (int, error) {
	if pes := eas.PEsByEnergy(g, d.ACG, assign, t, d.DeadPE); len(pes) > 0 {
		return pes[0], nil
	}
	return -1, fmt.Errorf("%w: task %d (%q) under scenario %q",
		ErrNoCapablePE, t, g.Task(t).Name, d.Scenario.Name)
}

// moveTask reassigns task t to dstPE, inserting it into the destination
// order at the position matching its fault-free start time so the local
// execution order stays plausible (mirrors the GTM move).
func moveTask(s *sched.Schedule, order [][]ctg.TaskID, assign []int, t ctg.TaskID, dstPE int) {
	srcPE := assign[t]
	src := order[srcPE]
	for i, o := range src {
		if o == t {
			order[srcPE] = append(src[:i], src[i+1:]...)
			break
		}
	}
	start := s.Tasks[t].Start
	dst := order[dstPE]
	insert := sort.Search(len(dst), func(i int) bool { return s.Tasks[dst[i]].Start > start })
	dst = append(dst, 0)
	copy(dst[insert+1:], dst[insert:])
	dst[insert] = t
	order[dstPE] = dst
	assign[t] = dstPE
}
