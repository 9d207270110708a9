package sched

import (
	"nocsched/internal/telemetry"
)

// Metric names published by the scheduler layer (see the README's
// Observability section for the full catalog with units).
const (
	// MetricProbes counts F(i,k) feasibility probes (count).
	MetricProbes = "sched_probes_total"
	// MetricProbeReuses counts the probes of MetricProbes answered
	// from the exact probe cache instead of evaluated (count).
	MetricProbeReuses = "sched_probe_reuses_total"
	// MetricCommits counts committed task placements (count).
	MetricCommits = "sched_commits_total"
	// MetricProbePairs is an NumPEs x NumPEs grid counting probed
	// incoming transactions per (source PE, candidate PE) pair — the
	// "which PE pair dominated probe cost" view (count).
	MetricProbePairs = "sched_probe_pair_total"
	// MetricReadyDepth is the ready-list depth observed at each
	// scheduling round (tasks).
	MetricReadyDepth = "sched_ready_depth"
	// MetricLinkBusy is a 1 x NumLinks grid of per-link busy time in
	// the committed schedule (schedule time units).
	MetricLinkBusy = "sched_link_busy_tu"
	// MetricLinkOccupancy is the per-link occupancy histogram of the
	// committed schedule: busy time over makespan, in percent, one
	// observation per link that carries traffic.
	MetricLinkOccupancy = "sched_link_occupancy_pct"
)

// readyDepthBounds is the fixed bucket layout of MetricReadyDepth.
var readyDepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// occupancyBounds is the fixed bucket layout of MetricLinkOccupancy
// (percent of makespan).
var occupancyBounds = []int64{1, 5, 10, 20, 40, 60, 80, 100}

// publish adds the run that just ended on the builder to registry r
// (nil: none), once: its probes and reuses, its commits, its PE-pair
// tally, and one ready-list depth per round. logReady[i] is the
// ready-list length before log[i] committed, which is that round's
// depth; a failed run's last round committed nothing, and rtl still
// holds its list.
func (b *Builder) publish(r *telemetry.Registry, failed bool) {
	if r == nil {
		return
	}
	pr := b.prober
	r.Counter(MetricProbes).Add(pr.work.Probes)
	r.Counter(MetricProbeReuses).Add(pr.work.ProbeReuses)
	r.Counter(MetricCommits).Add(int64(len(b.log)))
	npe := len(b.peTables)
	pairs := r.Grid(MetricProbePairs, npe, npe)
	for i, n := range pr.pairs {
		if n != 0 {
			pairs.Add(i/npe, i%npe, n)
		}
	}
	depth := r.Histogram(MetricReadyDepth, readyDepthBounds)
	for _, d := range b.logReady {
		depth.Observe(int64(d))
	}
	if failed && len(b.rtl) > 0 {
		depth.Observe(int64(len(b.rtl)))
	}
}

// Schedule metric names published by PublishSchedule.
const (
	// MetricEnergyCompute / MetricEnergyComm are Eq. (3)'s two terms
	// (nanojoules).
	MetricEnergyCompute = "energy_compute_nj"
	MetricEnergyComm    = "energy_comm_nj"
	// MetricEnergySwitch / MetricEnergyLink split the communication
	// term into its ESbit (switch fabric) and ELbit (inter-tile wire)
	// components per Eq. (2) (nanojoules).
	MetricEnergySwitch = "energy_comm_switch_nj"
	MetricEnergyLink   = "energy_comm_link_nj"
	// MetricEnergyTotal is Eq. (3), the scheduler objective (nJ).
	MetricEnergyTotal = "energy_total_nj"
	// MetricMakespan is the schedule makespan (schedule time units).
	MetricMakespan = "sched_makespan_tu"
	// MetricDeadlineMisses counts tasks finishing past their deadline.
	MetricDeadlineMisses = "sched_deadline_misses"
)

// CommEnergySplit decomposes the schedule's communication energy into
// the switch-fabric (ESbit) and inter-tile-link (ELbit) components of
// Eq. (2): a transaction over nhops routers spends
// volume*nhops*ESbit in crossbars and volume*(nhops-1)*ELbit on wires.
// The two components sum to CommunicationEnergy for hop-uniform ACGs
// (weighted per-link ACGs fold their length factors into the link
// term's share, so the sum still matches the total).
func (s *Schedule) CommEnergySplit() (switchNJ, linkNJ float64) {
	model := s.ACG.Model()
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		vol := s.Graph.Edge(tr.Edge).Volume
		if vol <= 0 || tr.SrcPE == tr.DstPE {
			continue
		}
		hops := s.ACG.Hops(tr.SrcPE, tr.DstPE)
		if hops <= 0 {
			continue
		}
		total := s.ACG.CommEnergy(vol, tr.SrcPE, tr.DstPE)
		sw := float64(vol) * float64(hops) * model.ESbit
		switchNJ += sw
		linkNJ += total - sw
	}
	return switchNJ, linkNJ
}

// PublishSchedule publishes the committed schedule's summary metrics —
// energy breakdown (compute vs. ESbit vs. ELbit), makespan, deadline
// misses, per-link busy time and the link-occupancy histogram — into a
// registry. It runs once per schedule, after scheduling, so it is free
// to allocate. A nil registry is a no-op.
func PublishSchedule(r *telemetry.Registry, s *Schedule) {
	if r == nil || s == nil {
		return
	}
	comp := s.ComputationEnergy()
	comm := s.CommunicationEnergy()
	sw, lk := s.CommEnergySplit()
	r.Gauge(MetricEnergyCompute).Set(comp)
	r.Gauge(MetricEnergyComm).Set(comm)
	r.Gauge(MetricEnergySwitch).Set(sw)
	r.Gauge(MetricEnergyLink).Set(lk)
	r.Gauge(MetricEnergyTotal).Set(comp + comm)
	makespan := s.Makespan()
	r.Gauge(MetricMakespan).Set(float64(makespan))
	r.Gauge(MetricDeadlineMisses).Set(float64(len(s.DeadlineMisses())))

	numLinks := s.ACG.Platform().Topo.NumLinks()
	busyGrid := r.Grid(MetricLinkBusy, 1, numLinks)
	occ := r.Histogram(MetricLinkOccupancy, occupancyBounds)
	busy := make([]int64, numLinks)
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		dur := tr.Finish - tr.Start
		if dur == 0 {
			continue
		}
		for _, l := range tr.Route {
			busy[l] += dur
		}
	}
	for l, bt := range busy {
		if bt == 0 {
			continue
		}
		busyGrid.Add(0, l, bt)
		if makespan > 0 {
			occ.Observe(100 * bt / makespan)
		}
	}
}
