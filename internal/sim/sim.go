// Package sim is a flit-level wormhole network simulator for the
// tile-based NoC of Sec. 3.1: routers with register-sized input buffers
// (1-2 flits), a crossbar switching fabric, deterministic routing, and
// wormhole flow control where the header flit locks each output port it
// acquires until the tail flit releases it.
//
// Its role in this reproduction is validation: the paper's scheduler
// reasons about communication with link schedule tables and claims the
// resulting transaction timings are exact up to router pipeline fill.
// Replay takes a finished schedule, injects every data transaction as a
// packet at its scheduled start time, simulates the network cycle by
// cycle, and reports when each packet actually arrived, how long it
// stalled, and how much energy it burned — an independent check that the
// schedule-table abstraction holds (and a way to expose how badly the
// naive fixed-delay model breaks it).
//
// One simulator cycle is one schedule time unit; one flit is
// LinkBandwidth bits, so a link moves exactly one flit per cycle —
// matching the bandwidth the scheduler assumed.
package sim

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// ErrBadFault marks an invalid Options.Faults entry: an out-of-range
// link or tile, an unknown kind, a negative activation cycle, a
// non-positive transient window, or an exact duplicate fault. Replay
// returns errors wrapping it (test with errors.Is) instead of silently
// ignoring malformed injections.
var ErrBadFault = errors.New("sim: invalid fault option")

// Metric names published into Options.Telemetry's registry by Replay.
const (
	// MetricPackets / MetricFailures count simulated and fault-dropped
	// packets (count).
	MetricPackets  = "sim_packets_total"
	MetricFailures = "sim_failures_total"
	// MetricCycles is the replay length (cycles).
	MetricCycles = "sim_cycles"
	// MetricMeasuredCommEnergy is the flit-accounted communication
	// energy (nanojoules).
	MetricMeasuredCommEnergy = "sim_measured_comm_energy_nj"
	// MetricStallCycles is the per-packet contention-stall histogram
	// (cycles).
	MetricStallCycles = "sim_stall_cycles"
	// MetricLinkFlits is a 1 x NumLinks grid of flit traversals per
	// link (flits).
	MetricLinkFlits = "sim_link_flits"
	// MetricRetries / MetricRetransmitted / MetricDropped count
	// retransmission attempts, packets delivered only after at least one
	// retry, and packets lost for good (count).
	MetricRetries       = "sim_retries_total"
	MetricRetransmitted = "sim_retransmitted_total"
	MetricDropped       = "sim_dropped_total"
	// MetricRetryEnergy is the recovery share of the measured
	// communication energy: corrupted attempts plus successful
	// retransmissions (nanojoules).
	MetricRetryEnergy = "sim_retry_energy_nj"
)

// stallBounds is the fixed bucket layout of MetricStallCycles.
var stallBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}

// FaultKind selects what a simulated hardware fault kills.
type FaultKind int

const (
	// FaultLink takes one directed link out of service.
	FaultLink FaultKind = iota
	// FaultRouter takes a tile's router out of service: every link in
	// or out of the tile dies, as do injection and ejection at it.
	FaultRouter
	// FaultPE kills a tile's processing element and network interface:
	// the router keeps forwarding through traffic, but nothing is sent
	// from or consumed at the tile anymore.
	FaultPE
	// FaultTransientLink makes one directed link drop every flit
	// presented to it during the bounded window [Cycle, Cycle+Duration),
	// then recover. A packet that loses a flit to the window is corrupted
	// whole (the worm is cut) and, when Options.Retx allows, detected by
	// the source's delivery timeout and retransmitted end to end.
	FaultTransientLink
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultLink:
		return "link"
	case FaultRouter:
		return "router"
	case FaultPE:
		return "pe"
	case FaultTransientLink:
		return "transient-link"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one permanent hardware failure injected into a replay at a
// given cycle. From the activation cycle on, every packet that is not
// yet fully delivered and depends on the dead resource — its route
// crosses a dead link or a dead router's tile, or its source or
// destination PE died — is dropped and reported as failed. (Wormhole
// flit positions are not tracked per packet, so a packet whose tail
// already cleared the dead resource but whose head is still in flight
// is conservatively counted as lost too.)
type Fault struct {
	Kind FaultKind
	// Link is the failed link for FaultLink and FaultTransientLink.
	Link noc.LinkID
	// Tile is the failed tile for FaultRouter and FaultPE.
	Tile noc.TileID
	// Cycle is the activation time; permanent kinds stay dead from then
	// on. Use 0 to start the replay on the already-degraded network.
	Cycle int64
	// Duration is the length of a FaultTransientLink drop window in
	// cycles (must be positive); ignored by the permanent kinds.
	Duration int64
}

// RetxOptions configures the end-to-end retransmission protocol that
// recovers packets corrupted by transient link faults. The source tracks
// each packet until delivery; when a transient window eats one of its
// flits the loss is detected after a delivery timeout and the whole
// packet is reinjected, up to MaxRetries attempts with exponentially
// growing backoff. The zero value disables retransmission (every
// corrupted packet is dropped), and the protocol never changes the
// behavior of a replay without transient faults.
type RetxOptions struct {
	// MaxRetries bounds retransmission attempts per packet; 0 disables
	// retransmission entirely.
	MaxRetries int
	// Timeout is the source's loss-detection delay in cycles, counted
	// from the start of the lost attempt; <= 0 selects a per-packet
	// default of flits + 2*hops + 8 (serialization plus a generous
	// round-trip allowance).
	Timeout int64
	// BackoffBase is the extra wait before the first reinjection,
	// doubling on every further attempt; <= 0 selects 8 cycles.
	BackoffBase int64
	// BackoffCap bounds the exponential backoff term; <= 0 selects 1024
	// cycles.
	BackoffCap int64
}

// Retransmission protocol defaults (see RetxOptions).
const (
	DefaultRetxBackoffBase = 8
	DefaultRetxBackoffCap  = 1024
)

// PacketStatus classifies the simulated fate of one packet.
type PacketStatus int

const (
	// StatusDelivered is a packet delivered on its first attempt.
	StatusDelivered PacketStatus = iota
	// StatusRetransmitted is a packet delivered only after at least one
	// retransmission.
	StatusRetransmitted
	// StatusDropped is a packet lost for good: killed by a permanent
	// fault, or corrupted with the retry budget exhausted.
	StatusDropped
)

// String names the status.
func (st PacketStatus) String() string {
	switch st {
	case StatusDelivered:
		return "delivered"
	case StatusRetransmitted:
		return "retransmitted"
	case StatusDropped:
		return "dropped"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// Options configures the simulator.
type Options struct {
	// BufferFlits is the capacity of each router input buffer in
	// flits. The paper's routers buffer "one or two flits each";
	// default 2.
	BufferFlits int
	// MaxCycles aborts a run that exceeds this many cycles (guards
	// against pathological inputs); default 100x the schedule
	// makespan.
	MaxCycles int64
	// Trace, when non-nil, receives a JSONL event stream (one Event
	// per flit injection, link traversal and delivery). Tracing slows
	// the replay down; leave nil for measurements. The first trace
	// write error is surfaced as Result.TraceErr (the replay itself
	// still completes).
	Trace io.Writer
	// Faults are hardware failures to inject during the replay (see
	// Fault): permanent kinds from their activation cycle on, transient
	// link windows for their bounded duration. A fault-free replay of a
	// valid schedule delivers everything; injected faults surface as
	// dropped (or retransmitted) packets in the Result. Malformed
	// entries are typed errors wrapping ErrBadFault.
	Faults []Fault
	// Retx configures end-to-end retransmission of packets corrupted by
	// transient link faults; the zero value drops them outright.
	Retx RetxOptions
	// Telemetry receives the replay's summary metrics (packet and
	// failure counts, stall histogram, per-link flit traffic); nil
	// disables collection. Telemetry never influences the simulation.
	Telemetry *telemetry.Collector
}

func (o *Options) setDefaults(s *sched.Schedule) {
	if o.BufferFlits <= 0 {
		o.BufferFlits = 2
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 100 * (s.Makespan() + 1)
	}
}

// PacketResult describes the simulated fate of one data transaction.
type PacketResult struct {
	Edge ctg.EdgeID
	// Injected is the cycle the head flit entered the source router
	// (the transaction's scheduled start).
	Injected int64
	// Delivered is the cycle the tail flit was consumed at the
	// destination, or -1 when the packet was lost to an injected
	// fault (Failed is then true).
	Delivered int64
	// Failed marks a packet dropped by an injected hardware fault.
	// Equivalent to Status == StatusDropped.
	Failed bool
	// Status classifies the fate: delivered on the first attempt,
	// delivered after retransmission, or dropped for good.
	Status PacketStatus
	// Retries counts retransmission attempts made for this packet,
	// whether or not one ultimately succeeded.
	Retries int
	// RetryDelay is the latency the retransmission protocol added:
	// the final attempt's start minus the scheduled injection cycle.
	// Zero for packets delivered on their first attempt.
	RetryDelay int64
	// ScheduledFinish is what the schedule promised.
	ScheduledFinish int64
	// Hops is the router count of the route; Flits the packet length.
	Hops  int
	Flits int64
	// StallCycles counts cycles the head flit spent blocked behind
	// contention or backpressure.
	StallCycles int64
}

// Slack returns scheduled finish + pipeline-fill allowance minus actual
// delivery; negative values mean the packet arrived later than the
// schedule-table model predicted even after allowing for the per-hop
// pipeline fill the analytical model abstracts away.
func (p *PacketResult) Slack() int64 {
	return p.ScheduledFinish + int64(p.Hops) - p.Delivered
}

// Result is the outcome of replaying a schedule.
type Result struct {
	Packets []PacketResult
	// Cycles is the cycle the last packet was delivered.
	Cycles int64
	// TotalStalls sums packet stall cycles — zero for schedules built
	// with the exact contention model, positive when transactions
	// actually collided in the network.
	TotalStalls int64
	// MeasuredCommEnergy is the energy accounted flit by flit as they
	// moved through switches and over links; it should agree with the
	// schedule's analytical communication energy up to flit-size
	// rounding.
	MeasuredCommEnergy float64
	// AvgHops is the mean hop count over simulated packets.
	AvgHops float64
	// LinkFlits[l] counts flit traversals of link l — the simulator's
	// per-link traffic view (compare Schedule.Utilization).
	LinkFlits []int64
	// Failures counts packets lost to injected faults (the entries of
	// Packets with Failed set). Zero on a fault-free replay.
	Failures int
	// Retransmitted counts packets delivered only after at least one
	// retransmission (disjoint from Failures).
	Retransmitted int
	// TotalRetries sums retransmission attempts over all packets,
	// including attempts that themselves were corrupted.
	TotalRetries int64
	// RetryEnergy is the recovery share of MeasuredCommEnergy: flit
	// energy burned by corrupted attempts plus the full cost of
	// successful retransmissions. Always <= MeasuredCommEnergy.
	RetryEnergy float64
	// RetryAddedLatency sums RetryDelay over delivered packets — the
	// total latency the retransmission protocol added to traffic that
	// still made it through.
	RetryAddedLatency int64
	// TraceErr is the first error writing the Options.Trace stream, or
	// nil. A non-nil TraceErr means the trace file is truncated even
	// though the replay completed — check it before analyzing a trace.
	TraceErr error
}

// LateDeliveries returns the packets that, even after the pipeline-fill
// allowance, arrived after the receiving task's scheduled start time —
// i.e. places where the analytic model lied about data readiness.
func (r *Result) LateDeliveries(s *sched.Schedule) []PacketResult {
	var late []PacketResult
	for _, p := range r.Packets {
		if p.Failed {
			continue // lost packets are reported via Failures, not lateness
		}
		dst := s.Graph.Edge(p.Edge).Dst
		if p.Delivered-int64(p.Hops) > s.Tasks[dst].Start {
			late = append(late, p)
		}
	}
	return late
}

// ExpectedFlitEnergy returns the analytic flit-quantized communication
// energy of a fault-free replay: each data transaction moves
// ceil(volume/bandwidth) flits of bandwidth bits each, and every flit
// pays Eq. (2) over the hop count of its recorded route. This is what
// MeasuredCommEnergy must converge to when no faults or
// retransmissions are injected; it exceeds the schedule's analytic
// CommunicationEnergy exactly by the padding of the last partial flit.
func ExpectedFlitEnergy(s *sched.Schedule) float64 {
	model := s.ACG.Model()
	bw := s.ACG.Platform().LinkBandwidth
	total := 0.0
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		vol := s.Graph.Edge(tr.Edge).Volume
		if vol <= 0 || tr.SrcPE == tr.DstPE {
			continue
		}
		flits := (vol + bw - 1) / bw
		hops := len(tr.Route) + 1
		total += float64(flits) * float64(bw) * model.BitEnergy(hops)
	}
	return total
}

// flit is one flow-control unit in flight.
type flit struct {
	pkt  int
	tail bool
}

// buffer is a router input FIFO (or an injection queue when cap < 0).
type buffer struct {
	q   []flit
	cap int // <0: unbounded (injection queue)
}

func (b *buffer) full() bool  { return b.cap >= 0 && len(b.q) >= b.cap }
func (b *buffer) empty() bool { return len(b.q) == 0 }
func (b *buffer) front() flit { return b.q[0] }
func (b *buffer) pop() flit   { f := b.q[0]; b.q = b.q[1:]; return f }
func (b *buffer) push(f flit) { b.q = append(b.q, f) }

// packet is one transaction in flight.
type packet struct {
	edge     ctg.EdgeID
	route    []noc.LinkID
	flits    int64
	injected int64
	// routeIndex maps each route link to its position, resolving the
	// next hop of a flit from the link it last traversed.
	routeIndex map[noc.LinkID]int
	// srcBuf is the packet's private source queue: the network
	// interface serializes each message independently, so packets
	// injected at the same tile must not share a FIFO (a shared queue
	// would create head-of-line deadlocks the real NI does not have).
	srcBuf    buffer
	remaining int64 // flits still to inject at the source
	delivered int64 // flits consumed at the destination
	doneAt    int64
	stalls    int64
	failed    bool // dropped by an injected fault
	// Retransmission state. attempt counts retries so far; resumeAt is
	// the cycle the current attempt may start injecting (scheduled start
	// for the first attempt, timeout+backoff expiry for retries);
	// lastStart is the attempt's start, the base for the next timeout.
	attempt   int
	resumeAt  int64
	lastStart int64
	// attemptEnergy accumulates the flit energy of the current attempt;
	// flushed into Result.RetryEnergy when the attempt is corrupted or
	// when a retransmission finally delivers.
	attemptEnergy float64
	// queued marks the packet as sitting on the retrying re-injection
	// list (only needed once the main injection cursor has passed it).
	queued bool
}

// Replay simulates a complete schedule. Tasks are not re-simulated (the
// PE tables are exact by construction); packets are injected at their
// scheduled transaction start times.
func Replay(s *sched.Schedule, opts Options) (*Result, error) {
	opts.setDefaults(s)
	topo := s.ACG.Platform().Topo

	// Build packets from the schedule's data transactions.
	var pkts []*packet
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		vol := s.Graph.Edge(tr.Edge).Volume
		if vol <= 0 || tr.SrcPE == tr.DstPE {
			continue
		}
		bw := s.ACG.Platform().LinkBandwidth
		p := &packet{
			edge:       tr.Edge,
			route:      tr.Route,
			flits:      (vol + bw - 1) / bw,
			injected:   tr.Start,
			routeIndex: make(map[noc.LinkID]int, len(tr.Route)),
			doneAt:     -1,
			resumeAt:   tr.Start,
			lastStart:  tr.Start,
		}
		if len(p.route) == 0 {
			return nil, fmt.Errorf("sim: transaction %d has volume but no route", tr.Edge)
		}
		p.remaining = p.flits
		for idx, l := range p.route {
			p.routeIndex[l] = idx
		}
		pkts = append(pkts, p)
	}
	res := &Result{LinkFlits: make([]int64, topo.NumLinks())}
	if len(pkts) == 0 {
		publishMetrics(opts.Telemetry.R(), res)
		return res, nil
	}
	trace := newTraceSink(opts.Trace)
	// Deterministic processing order: by injection time then edge.
	sort.Slice(pkts, func(a, b int) bool {
		if pkts[a].injected != pkts[b].injected {
			return pkts[a].injected < pkts[b].injected
		}
		return pkts[a].edge < pkts[b].edge
	})

	// One input buffer per link (at the link's destination router);
	// source queues are per packet (see packet.srcBuf).
	inBuf := make([]buffer, topo.NumLinks())
	for i := range inBuf {
		inBuf[i] = buffer{cap: opts.BufferFlits}
	}
	for _, p := range pkts {
		p.srcBuf = buffer{cap: -1}
	}
	// Wormhole output locks: lock[link] = packet index or -1.
	lock := make([]int, topo.NumLinks())
	for i := range lock {
		lock[i] = -1
	}
	// feeders[link] lists the router input buffers able to present
	// flits to the link (every input buffer at link.From); srcPkts
	// lists the packets whose first hop is the link (their private
	// source queues feed it directly).
	feeders := make([][]*buffer, topo.NumLinks())
	srcPkts := make([][]int, topo.NumLinks())
	for l := 0; l < topo.NumLinks(); l++ {
		link := topo.Link(noc.LinkID(l))
		for l2 := 0; l2 < topo.NumLinks(); l2++ {
			if topo.Link(noc.LinkID(l2)).To == link.From {
				feeders[l] = append(feeders[l], &inBuf[l2])
			}
		}
	}
	for i, p := range pkts {
		srcPkts[p.route[0]] = append(srcPkts[p.route[0]], i)
	}

	model := s.ACG.Model()
	bw := s.ACG.Platform().LinkBandwidth
	pending := len(pkts)
	next := 0 // next packet to inject
	var cycle int64

	// Injected-fault state: faults sorted by activation cycle; dead
	// resource sets grow monotonically as faults activate.
	faults := append([]Fault(nil), opts.Faults...)
	sort.Slice(faults, func(a, b int) bool { return faults[a].Cycle < faults[b].Cycle })
	if err := validateFaults(opts.Faults, topo); err != nil {
		return nil, err
	}
	deadLink := make([]bool, topo.NumLinks())
	// transientUntil[l] > cycle means link l is inside a transient drop
	// window and corrupts every flit presented to it.
	transientUntil := make([]int64, topo.NumLinks())
	hasTransient := false
	for _, f := range faults {
		if f.Kind == FaultTransientLink {
			hasTransient = true
		}
	}
	nextFault := 0
	// retrying lists corrupted packets the injection cursor has already
	// passed; they are re-injected from here once their backoff expires.
	var retrying []int
	// purge removes every flit of a packet from the network — its
	// private source queue, router input buffers, and wormhole locks —
	// so survivors keep flowing past the hole the worm left.
	purge := func(pi int) {
		p := pkts[pi]
		p.srcBuf.q = nil
		for b := range inBuf {
			q := inBuf[b].q[:0]
			for _, f := range inBuf[b].q {
				if f.pkt != pi {
					q = append(q, f)
				}
			}
			inBuf[b].q = q
		}
		for l := range lock {
			if lock[l] == pi {
				lock[l] = -1
			}
		}
	}
	// kill drops an undelivered packet for good (permanent faults):
	// its flits are purged and it is reported as failed. Energy already
	// burned counts as retry energy only if the doomed attempt was
	// itself a retransmission.
	kill := func(pi int) {
		p := pkts[pi]
		if p.failed || p.doneAt >= 0 {
			return
		}
		purge(pi)
		if p.attempt > 0 {
			res.RetryEnergy += p.attemptEnergy
		}
		p.attemptEnergy = 0
		p.failed = true
		p.remaining = 0
		trace.emit(Event{Cycle: cycle, Kind: "drop", Edge: p.edge})
		pending--
	}
	// corrupt cuts a worm on a transiently-faulty link: the attempt's
	// flits are purged, its energy is flushed into RetryEnergy (it was
	// wasted), and the packet is either scheduled for an end-to-end
	// retransmission after its delivery timeout plus backoff, or dropped
	// once the retry budget is spent.
	corrupt := func(pi int) {
		p := pkts[pi]
		if p.failed || p.doneAt >= 0 {
			return
		}
		purge(pi)
		res.RetryEnergy += p.attemptEnergy
		p.attemptEnergy = 0
		trace.emit(Event{Cycle: cycle, Kind: "corrupt", Edge: p.edge})
		if p.attempt >= opts.Retx.MaxRetries {
			p.failed = true
			p.remaining = 0
			trace.emit(Event{Cycle: cycle, Kind: "drop", Edge: p.edge})
			pending--
			return
		}
		p.attempt++
		res.TotalRetries++
		// The source only learns of the loss after its delivery timeout
		// (counted from the attempt's start); it then waits out the
		// exponential backoff before reinjecting.
		resume := p.lastStart + timeoutFor(p, opts.Retx) + backoff(opts.Retx, p.attempt)
		if resume <= cycle {
			resume = cycle + 1
		}
		p.remaining = p.flits
		p.delivered = 0
		p.resumeAt = resume
		p.lastStart = resume
		if pi < next && !p.queued {
			p.queued = true
			retrying = append(retrying, pi)
		}
	}
	// doomed reports whether a packet depends on the resource a fault
	// killed: its route crosses the dead link / dead router's tile, or
	// an endpoint PE died.
	doomed := func(p *packet, f Fault) bool {
		tr := &s.Transactions[p.edge]
		switch f.Kind {
		case FaultLink:
			_, on := p.routeIndex[f.Link]
			return on
		case FaultRouter:
			if noc.TileID(tr.SrcPE) == f.Tile || noc.TileID(tr.DstPE) == f.Tile {
				return true
			}
			for _, l := range p.route {
				link := topo.Link(l)
				if link.From == f.Tile || link.To == f.Tile {
					return true
				}
			}
			return false
		default: // FaultPE
			return noc.TileID(tr.SrcPE) == f.Tile || noc.TileID(tr.DstPE) == f.Tile
		}
	}

	// gather collects the buffers whose front flit wants link l: the
	// private source queues of packets starting there plus router input
	// buffers whose front flit's next hop is l. Buffers already advancing
	// this cycle (reserved; nil during the corruption pass) are skipped.
	gather := func(l int, reserved map[*buffer]bool) []*buffer {
		linkID := noc.LinkID(l)
		var cands []*buffer
		for _, pi := range srcPkts[l] {
			b := &pkts[pi].srcBuf
			if !b.empty() && !reserved[b] {
				cands = append(cands, b)
			}
		}
		for _, b := range feeders[l] {
			if b.empty() || reserved[b] {
				continue
			}
			p := pkts[b.front().pkt]
			idx, ok := p.routeIndex[linkID]
			if !ok {
				continue
			}
			// b is inBuf[l2] for exactly one l2; the flit sits at the
			// To-tile of l2, so this link must be the route successor
			// of l2.
			prev := bufferLink(inBuf, b)
			pidx, on := p.routeIndex[noc.LinkID(prev)]
			if !on || pidx+1 != idx {
				continue
			}
			cands = append(cands, b)
		}
		return cands
	}
	// arbitrate picks the buffer that advances over link l this cycle:
	// the wormhole lock holder goes first; an unlocked output grants to
	// the oldest head flit. Nil when the lock holder has no flit ready.
	arbitrate := func(l int, cands []*buffer) *buffer {
		if lock[l] >= 0 {
			for _, b := range cands {
				if b.front().pkt == lock[l] {
					return b
				}
			}
			return nil
		}
		var chosen *buffer
		for _, b := range cands {
			if chosen == nil || older(pkts, b.front().pkt, chosen.front().pkt) {
				chosen = b
			}
		}
		return chosen
	}

	for pending > 0 {
		if cycle > opts.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles with %d packets undelivered (network deadlock or runaway)",
				opts.MaxCycles, pending)
		}
		// Activate due faults and drop the packets they doom.
		for nextFault < len(faults) && faults[nextFault].Cycle <= cycle {
			f := faults[nextFault]
			nextFault++
			switch f.Kind {
			case FaultLink:
				deadLink[f.Link] = true
			case FaultRouter:
				for l := 0; l < topo.NumLinks(); l++ {
					link := topo.Link(noc.LinkID(l))
					if link.From == f.Tile || link.To == f.Tile {
						deadLink[l] = true
					}
				}
			case FaultTransientLink:
				// Transient windows corrupt worms as flits are presented
				// to the link (see the corruption pass below); nothing is
				// doomed outright.
				if until := f.Cycle + f.Duration; until > transientUntil[f.Link] {
					transientUntil[f.Link] = until
				}
				continue
			}
			for pi, p := range pkts {
				if !p.failed && p.doneAt < 0 && doomed(p, f) {
					kill(pi)
				}
			}
		}
		if pending == 0 {
			break
		}
		// Inject due packets' flits into their private source queues.
		// One flit per cycle per packet models the PE's network
		// interface serializing the message at link bandwidth.
		for i := next; i < len(pkts) && pkts[i].injected <= cycle; i++ {
			p := pkts[i]
			if p.remaining > 0 && cycle >= p.resumeAt {
				tail := p.remaining == 1
				p.srcBuf.push(flit{pkt: i, tail: tail})
				p.remaining--
				trace.emit(Event{Cycle: cycle, Kind: "inject", Edge: p.edge, Tail: tail})
			}
			// The cursor never passes a packet that still has flits to
			// inject (a retransmission waiting out its backoff holds it).
			if i == next && p.remaining == 0 {
				next++
			}
		}
		// Re-inject corrupted packets the cursor already passed.
		if len(retrying) > 0 {
			keep := retrying[:0]
			for _, i := range retrying {
				p := pkts[i]
				if p.failed || p.doneAt >= 0 || p.remaining == 0 {
					p.queued = false
					continue
				}
				if cycle >= p.resumeAt {
					tail := p.remaining == 1
					p.srcBuf.push(flit{pkt: i, tail: tail})
					p.remaining--
					trace.emit(Event{Cycle: cycle, Kind: "inject", Edge: p.edge, Tail: tail})
					if p.remaining == 0 {
						p.queued = false
						continue
					}
				}
				keep = append(keep, i)
			}
			retrying = keep
		}

		// Corruption pass: each link inside a transient drop window eats
		// the one flit that would have traversed it this cycle, cutting
		// that packet's worm. Done before movement decisions so phase 1
		// never collects moves whose buffers a purge just rewrote.
		if hasTransient {
			for l := 0; l < topo.NumLinks(); l++ {
				if transientUntil[l] <= cycle || deadLink[l] {
					continue
				}
				cands := gather(l, nil)
				if len(cands) == 0 {
					continue
				}
				if chosen := arbitrate(l, cands); chosen != nil {
					corrupt(chosen.front().pkt)
				}
			}
			if pending == 0 {
				break
			}
		}

		// Phase 1: decide at most one flit movement per link based on
		// the state at the start of the cycle.
		type move struct {
			from *buffer
			link noc.LinkID
			dst  *buffer // nil = ejection at destination tile
		}
		var moves []move
		reserved := make(map[*buffer]bool) // source buffers already advancing this cycle
		for l := 0; l < topo.NumLinks(); l++ {
			if deadLink[l] {
				continue // surviving packets never route over dead links
			}
			linkID := noc.LinkID(l)
			cands := gather(l, reserved)
			if len(cands) == 0 {
				continue
			}
			if transientUntil[l] > cycle {
				// Drop window: the corruption pass already cut the worm
				// that would have advanced; everyone else queued on the
				// link waits the window out.
				for _, b := range cands {
					pkts[b.front().pkt].stalls++
				}
				continue
			}
			chosen := arbitrate(l, cands)
			if chosen == nil {
				// Output locked by a packet with no flit ready here:
				// everyone queued on it is stalled.
				for _, b := range cands {
					pkts[b.front().pkt].stalls++
				}
				continue
			}
			p := pkts[chosen.front().pkt]
			idx := p.routeIndex[linkID]
			last := idx == len(p.route)-1
			var dst *buffer
			if !last {
				dst = &inBuf[l]
				if dst.full() {
					p.stalls++ // backpressure
					continue
				}
			}
			reserved[chosen] = true
			moves = append(moves, move{from: chosen, link: linkID, dst: dst})
			// Arbitration losers are stalled this cycle.
			for _, b := range cands {
				if b != chosen {
					pkts[b.front().pkt].stalls++
				}
			}
		}

		// Phase 2: apply the moves.
		for _, mv := range moves {
			f := mv.from.pop()
			p := pkts[f.pkt]
			res.LinkFlits[mv.link]++
			kind := "hop"
			if mv.dst == nil && f.tail {
				kind = "deliver"
			}
			trace.emit(Event{Cycle: cycle, Kind: kind, Edge: p.edge, Link: mv.link, Tail: f.tail})
			// Energy: the flit crossed one switch and one link — or
			// just the final switch+ejection on the last hop. Charge
			// per Eq. (2): nhops switches, nhops-1 links. The first
			// traversal also covers the source switch.
			idx := p.routeIndex[mv.link]
			bits := float64(bw)
			var e float64
			if idx == 0 {
				e += bits * model.ESbit // source router switch
			}
			e += bits * model.ELbit // the link itself... see note below
			e += bits * model.ESbit // downstream router switch
			res.MeasuredCommEnergy += e
			p.attemptEnergy += e
			if mv.dst == nil {
				// Ejected at the destination tile.
				p.delivered++
				if f.tail {
					p.doneAt = cycle + 1
					pending--
					lock[mv.link] = -1
					if p.attempt > 0 {
						// A retransmission made it: its traversal energy
						// is recovery overhead on top of the one delivery
						// the schedule paid for.
						res.RetryEnergy += p.attemptEnergy
					}
					p.attemptEnergy = 0
				} else {
					lock[mv.link] = f.pkt
				}
			} else {
				mv.dst.push(f)
				if f.tail {
					lock[mv.link] = -1
				} else {
					lock[mv.link] = f.pkt
				}
			}
		}
		cycle++
	}
	res.Cycles = cycle

	// Collect per-packet results.
	totalHops := 0.0
	for _, p := range pkts {
		schedFinish := s.Transactions[p.edge].Finish
		status := StatusDelivered
		switch {
		case p.failed:
			status = StatusDropped
		case p.attempt > 0:
			status = StatusRetransmitted
		}
		var retryDelay int64
		if p.attempt > 0 {
			retryDelay = p.lastStart - p.injected
		}
		res.Packets = append(res.Packets, PacketResult{
			Edge:            p.edge,
			Injected:        p.injected,
			Delivered:       p.doneAt,
			Failed:          p.failed,
			Status:          status,
			Retries:         p.attempt,
			RetryDelay:      retryDelay,
			ScheduledFinish: schedFinish,
			Hops:            len(p.route) + 1,
			Flits:           p.flits,
			StallCycles:     p.stalls,
		})
		switch status {
		case StatusDropped:
			res.Failures++
		case StatusRetransmitted:
			res.Retransmitted++
			res.RetryAddedLatency += retryDelay
		}
		res.TotalStalls += p.stalls
		totalHops += float64(len(p.route) + 1)
	}
	res.AvgHops = totalHops / float64(len(pkts))
	res.TraceErr = trace.err()
	publishMetrics(opts.Telemetry.R(), res)
	return res, nil
}

// publishMetrics publishes the replay's summary into a registry; a nil
// registry is a no-op. Counters accumulate across replays sharing one
// registry (the experiment drivers replay many schedules).
func publishMetrics(r *telemetry.Registry, res *Result) {
	if r == nil {
		return
	}
	r.Counter(MetricPackets).Add(int64(len(res.Packets)))
	r.Counter(MetricFailures).Add(int64(res.Failures))
	r.Counter(MetricRetries).Add(res.TotalRetries)
	r.Counter(MetricRetransmitted).Add(int64(res.Retransmitted))
	r.Counter(MetricDropped).Add(int64(res.Failures))
	r.Gauge(MetricCycles).Set(float64(res.Cycles))
	r.Gauge(MetricMeasuredCommEnergy).Set(res.MeasuredCommEnergy)
	r.Gauge(MetricRetryEnergy).Set(res.RetryEnergy)
	stalls := r.Histogram(MetricStallCycles, stallBounds)
	for i := range res.Packets {
		stalls.Observe(res.Packets[i].StallCycles)
	}
	flits := r.Grid(MetricLinkFlits, 1, len(res.LinkFlits))
	for l, n := range res.LinkFlits {
		if n > 0 {
			flits.Add(0, l, n)
		}
	}
}

// validateFaults rejects malformed fault injections with typed errors
// wrapping ErrBadFault: out-of-range links or tiles, unknown kinds,
// negative activation cycles, non-positive transient windows, and exact
// duplicate entries.
func validateFaults(faults []Fault, topo noc.Topology) error {
	seen := make(map[Fault]bool, len(faults))
	for _, f := range faults {
		switch f.Kind {
		case FaultLink, FaultTransientLink:
			if f.Link < 0 || int(f.Link) >= topo.NumLinks() {
				return fmt.Errorf("%w: %v fault on unknown link %d", ErrBadFault, f.Kind, f.Link)
			}
		case FaultRouter, FaultPE:
			if f.Tile < 0 || int(f.Tile) >= topo.NumTiles() {
				return fmt.Errorf("%w: %v fault on unknown tile %d", ErrBadFault, f.Kind, f.Tile)
			}
		default:
			return fmt.Errorf("%w: unknown fault kind %v", ErrBadFault, f.Kind)
		}
		if f.Cycle < 0 {
			return fmt.Errorf("%w: %v fault with negative cycle %d", ErrBadFault, f.Kind, f.Cycle)
		}
		if f.Kind == FaultTransientLink && f.Duration <= 0 {
			return fmt.Errorf("%w: transient-link fault with non-positive duration %d", ErrBadFault, f.Duration)
		}
		if seen[f] {
			return fmt.Errorf("%w: duplicate %v fault at cycle %d", ErrBadFault, f.Kind, f.Cycle)
		}
		seen[f] = true
	}
	return nil
}

// timeoutFor resolves a packet's loss-detection timeout: the configured
// value, or serialization time plus a generous round-trip allowance.
func timeoutFor(p *packet, rx RetxOptions) int64 {
	if rx.Timeout > 0 {
		return rx.Timeout
	}
	return p.flits + 2*int64(len(p.route)+1) + 8
}

// backoff returns the extra reinjection delay before retry attempt n
// (1-based): BackoffBase doubling per attempt, bounded by BackoffCap.
func backoff(rx RetxOptions, attempt int) int64 {
	base := rx.BackoffBase
	if base <= 0 {
		base = DefaultRetxBackoffBase
	}
	limit := rx.BackoffCap
	if limit <= 0 {
		limit = DefaultRetxBackoffCap
	}
	w := base
	for i := 1; i < attempt && w < limit; i++ {
		w <<= 1
	}
	if w > limit || w < 0 {
		w = limit
	}
	return w
}

// bufferLink resolves which link an input buffer belongs to (linear
// scan; topologies are small and this runs once per arbitration).
func bufferLink(inBuf []buffer, b *buffer) int {
	for i := range inBuf {
		if &inBuf[i] == b {
			return i
		}
	}
	return -1
}

// older reports whether packet a was injected before packet b
// (tie-break on edge ID), the arbitration priority.
func older(pkts []*packet, a, b int) bool {
	if pkts[a].injected != pkts[b].injected {
		return pkts[a].injected < pkts[b].injected
	}
	return pkts[a].edge < pkts[b].edge
}
