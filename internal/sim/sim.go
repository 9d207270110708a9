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
	"fmt"
	"io"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// Metric names published into Options.Telemetry's registry by Replay.
const (
	// MetricPackets counts simulated packets (count).
	MetricPackets = "sim_packets_total"
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
)

// stallBounds is the fixed bucket layout of MetricStallCycles.
var stallBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}

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
	// Telemetry receives the replay's summary metrics (packet count,
	// stall histogram, per-link flit traffic); nil disables collection.
	// Telemetry never influences the simulation.
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
	// destination.
	Delivered int64
	// ScheduledFinish is what the schedule promised.
	ScheduledFinish int64
	// Hops is the router count of the route; Flits the packet length.
	Hops  int
	Flits int64
	// StallCycles counts, per cycle, each of the packet's flits that
	// waited behind contention or backpressure: at the front of a
	// buffer, or as the packet's first flit queued behind another
	// packet's flit. It bounds the packet's lateness: -Slack() never
	// exceeds it.
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
		dst := s.Graph.Edge(p.Edge).Dst
		if p.Delivered-int64(p.Hops) > s.Tasks[dst].Start {
			late = append(late, p)
		}
	}
	return late
}

// ExpectedFlitEnergy returns the analytic flit-quantized communication
// energy of a replay: each data transaction moves ceil(volume/bandwidth)
// flits of bandwidth bits each, and every flit pays Eq. (2) over the hop
// count of its recorded route. This is what MeasuredCommEnergy must
// equal; it exceeds the schedule's analytic CommunicationEnergy exactly
// by the padding of the last partial flit.
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
	doneAt    int64
	stalls    int64
}

// packets builds one packet per data transaction of s, in the
// deterministic processing order: by injection time, then edge.
func packets(s *sched.Schedule) ([]*packet, error) {
	bw := s.ACG.Platform().LinkBandwidth
	var pkts []*packet
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		vol := s.Graph.Edge(tr.Edge).Volume
		if vol <= 0 || tr.SrcPE == tr.DstPE {
			continue
		}
		if len(tr.Route) == 0 {
			return nil, fmt.Errorf("sim: transaction %d has volume but no route", tr.Edge)
		}
		p := &packet{
			edge:       tr.Edge,
			route:      tr.Route,
			flits:      (vol + bw - 1) / bw,
			injected:   tr.Start,
			routeIndex: make(map[noc.LinkID]int, len(tr.Route)),
			srcBuf:     buffer{cap: -1},
		}
		p.remaining = p.flits
		for idx, l := range p.route {
			p.routeIndex[l] = idx
		}
		pkts = append(pkts, p)
	}
	sort.Slice(pkts, func(a, b int) bool { return older(pkts, a, b) })
	return pkts, nil
}

// network is the state of one replay: the packets, one input buffer
// per link (at the link's destination router), the wormhole output
// locks, and the accounting the replay reports.
type network struct {
	pkts []*packet
	next int // injection cursor: every packet before it is fully injected
	// inBuf[link] is the input buffer at link.To; lock[link] is the
	// index of the packet holding the link's wormhole lock, or -1.
	inBuf []buffer
	lock  []int
	// feeders[link] lists the links whose input buffers (every input
	// buffer at link.From) can present flits to the link; srcPkts[link]
	// lists the packets whose first hop is the link (their private
	// source queues feed it directly).
	feeders [][]int
	srcPkts [][]int

	model energy.Model
	bw    int64
	trace traceSink
	res   *Result
}

func newNetwork(s *sched.Schedule, pkts []*packet, opts *Options, res *Result) *network {
	topo := s.ACG.Platform().Topo
	nl := topo.NumLinks()
	n := &network{
		pkts:    pkts,
		inBuf:   make([]buffer, nl),
		lock:    make([]int, nl),
		feeders: make([][]int, nl),
		srcPkts: make([][]int, nl),
		model:   s.ACG.Model(),
		bw:      s.ACG.Platform().LinkBandwidth,
		trace:   newTraceSink(opts.Trace),
		res:     res,
	}
	for l := 0; l < nl; l++ {
		n.inBuf[l] = buffer{cap: opts.BufferFlits}
		n.lock[l] = -1
		from := topo.Link(noc.LinkID(l)).From
		for l2 := 0; l2 < nl; l2++ {
			if topo.Link(noc.LinkID(l2)).To == from {
				n.feeders[l] = append(n.feeders[l], l2)
			}
		}
	}
	for i, p := range pkts {
		n.srcPkts[p.route[0]] = append(n.srcPkts[p.route[0]], i)
	}
	return n
}

// Replay simulates a complete schedule. Tasks are not re-simulated (the
// PE tables are exact by construction); packets are injected at their
// scheduled transaction start times.
func Replay(s *sched.Schedule, opts Options) (*Result, error) {
	opts.setDefaults(s)
	pkts, err := packets(s)
	if err != nil {
		return nil, err
	}
	res := &Result{LinkFlits: make([]int64, s.ACG.Platform().Topo.NumLinks())}
	if len(pkts) == 0 {
		publishMetrics(opts.Telemetry.R(), res)
		return res, nil
	}
	n := newNetwork(s, pkts, &opts, res)
	var cycle int64
	for pending := len(pkts); pending > 0; cycle++ {
		if cycle > opts.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles with %d packets undelivered (network deadlock or runaway)",
				opts.MaxCycles, pending)
		}
		n.inject(cycle)
		pending -= n.advance(cycle, n.decide())
	}
	res.Cycles = cycle

	totalHops := 0.0
	for _, p := range pkts {
		res.Packets = append(res.Packets, PacketResult{
			Edge:            p.edge,
			Injected:        p.injected,
			Delivered:       p.doneAt,
			ScheduledFinish: s.Transactions[p.edge].Finish,
			Hops:            len(p.route) + 1,
			Flits:           p.flits,
			StallCycles:     p.stalls,
		})
		res.TotalStalls += p.stalls
		totalHops += float64(len(p.route) + 1)
	}
	res.AvgHops = totalHops / float64(len(pkts))
	res.TraceErr = n.trace.err()
	publishMetrics(opts.Telemetry.R(), res)
	return res, nil
}

// inject moves the next flit of every due packet into its private
// source queue: one flit per cycle per packet models the PE's network
// interface serializing the message at link bandwidth.
func (n *network) inject(cycle int64) {
	for i := n.next; i < len(n.pkts) && n.pkts[i].injected <= cycle; i++ {
		p := n.pkts[i]
		if p.remaining > 0 {
			tail := p.remaining == 1
			p.srcBuf.push(flit{pkt: i, tail: tail})
			p.remaining--
			n.trace.emit(Event{Cycle: cycle, Kind: "inject", Edge: p.edge, Tail: tail})
		}
		if i == n.next && p.remaining == 0 {
			n.next++
		}
	}
}

// move is one flit advancing over a link in the current cycle.
type move struct {
	from *buffer
	link noc.LinkID
	dst  *buffer // nil = ejection at destination tile
}

// decide picks at most one flit movement per link from the state at
// the start of the cycle and charges a stall to every packet with a
// flit that waits this cycle: a buffer-front flit that loses
// arbitration, waits on a lock holder with no flit ready or sits behind
// a winner blocked by a full downstream buffer, and the first flit of
// a packet queued behind another packet's flit in an input buffer.
// Every cycle a packet's tail is delivered late is then charged at
// least once.
func (n *network) decide() []move {
	var moves []move
	for l := range n.inBuf {
		n.chargeQueued(&n.inBuf[l])
		cands := n.gather(l)
		if len(cands) == 0 {
			continue
		}
		var moved *buffer
		if chosen := n.arbitrate(l, cands); chosen != nil {
			linkID := noc.LinkID(l)
			var dst *buffer // nil: the flit ejects at its destination
			if p := n.pkts[chosen.front().pkt]; p.routeIndex[linkID] != len(p.route)-1 {
				dst = &n.inBuf[l]
			}
			if dst == nil || !dst.full() {
				moves = append(moves, move{from: chosen, link: linkID, dst: dst})
				moved = chosen
			}
		}
		for _, b := range cands {
			if b != moved {
				n.pkts[b.front().pkt].stalls++
			}
		}
	}
	return moves
}

// chargeQueued charges a stall to each packet whose first flit in b
// waits behind another packet's flit. A link's wormhole lock keeps each
// packet's flits contiguous in the buffer at its end, so a packet
// starts wherever the packet index changes.
func (n *network) chargeQueued(b *buffer) {
	for k := 1; k < len(b.q); k++ {
		if b.q[k].pkt != b.q[k-1].pkt {
			n.pkts[b.q[k].pkt].stalls++
		}
	}
}

// gather collects the buffers whose front flit wants link l: the
// private source queues of packets starting there plus router input
// buffers whose front flit's next hop is l. A buffer's front flit
// wants exactly one link, so no buffer is a candidate twice in a cycle.
func (n *network) gather(l int) []*buffer {
	linkID := noc.LinkID(l)
	var cands []*buffer
	for _, pi := range n.srcPkts[l] {
		if b := &n.pkts[pi].srcBuf; !b.empty() {
			cands = append(cands, b)
		}
	}
	for _, prev := range n.feeders[l] {
		b := &n.inBuf[prev]
		if b.empty() {
			continue
		}
		p := n.pkts[b.front().pkt]
		idx, ok := p.routeIndex[linkID]
		if !ok {
			continue
		}
		// The flit sits at the To-tile of link prev, so l must be the
		// route successor of prev.
		pidx, on := p.routeIndex[noc.LinkID(prev)]
		if !on || pidx+1 != idx {
			continue
		}
		cands = append(cands, b)
	}
	return cands
}

// arbitrate picks the buffer that advances over link l this cycle: the
// wormhole lock holder goes first; an unlocked output grants to the
// oldest head flit. Nil when the lock holder has no flit ready.
func (n *network) arbitrate(l int, cands []*buffer) *buffer {
	if holder := n.lock[l]; holder >= 0 {
		for _, b := range cands {
			if b.front().pkt == holder {
				return b
			}
		}
		return nil
	}
	var chosen *buffer
	for _, b := range cands {
		if chosen == nil || older(n.pkts, b.front().pkt, chosen.front().pkt) {
			chosen = b
		}
	}
	return chosen
}

// advance applies the cycle's moves and returns the number of packets
// whose tail flit was ejected at its destination.
func (n *network) advance(cycle int64, moves []move) int {
	delivered := 0
	for _, mv := range moves {
		f := mv.from.pop()
		p := n.pkts[f.pkt]
		n.res.LinkFlits[mv.link]++
		kind := "hop"
		if mv.dst == nil && f.tail {
			kind = "deliver"
		}
		n.trace.emit(Event{Cycle: cycle, Kind: kind, Edge: p.edge, Link: mv.link, Tail: f.tail})
		// Energy: the flit crossed one link and the switch behind it;
		// the first traversal also covers the source switch. Summed
		// over the route this is Eq. (2): nhops switches, nhops-1 links.
		bits := float64(n.bw)
		var e float64
		if p.routeIndex[mv.link] == 0 {
			e += bits * n.model.ESbit // source router switch
		}
		e += bits * n.model.ELbit
		e += bits * n.model.ESbit // downstream router switch
		n.res.MeasuredCommEnergy += e
		// The wormhole lock holds from the head flit to the tail.
		if f.tail {
			n.lock[mv.link] = -1
		} else {
			n.lock[mv.link] = f.pkt
		}
		if mv.dst != nil {
			mv.dst.push(f)
		} else if f.tail {
			p.doneAt = cycle + 1
			delivered++
		}
	}
	return delivered
}

// publishMetrics publishes the replay's summary into a registry; a nil
// registry is a no-op. Counters accumulate across replays sharing one
// registry (the experiment drivers replay many schedules).
func publishMetrics(r *telemetry.Registry, res *Result) {
	if r == nil {
		return
	}
	r.Counter(MetricPackets).Add(int64(len(res.Packets)))
	r.Gauge(MetricCycles).Set(float64(res.Cycles))
	r.Gauge(MetricMeasuredCommEnergy).Set(res.MeasuredCommEnergy)
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

// older reports whether packet a was injected before packet b
// (tie-break on edge ID), the arbitration priority.
func older(pkts []*packet, a, b int) bool {
	if pkts[a].injected != pkts[b].injected {
		return pkts[a].injected < pkts[b].injected
	}
	return pkts[a].edge < pkts[b].edge
}
