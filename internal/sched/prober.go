package sched

import (
	"fmt"
	"math"
	"slices"

	"nocsched/internal/ctg"
	"nocsched/internal/schedtable"
)

// ProbeResult is the outcome of one F(i,k) feasibility probe: the
// timing and incoming-communication energy the task would get on the
// PE, without the per-transaction detail a Commit records. It is the
// data the paper's Step 2 selection (Eq. 4, footnote 2) consumes.
type ProbeResult struct {
	Task ctg.TaskID
	PE   int
	// Start/Finish bound the task's execution slot.
	Start, Finish int64
	// DRT is the data-ready time: the latest arrival of the incoming
	// transactions under this placement.
	DRT int64
	// CommEnergy is the energy of the incoming transactions.
	CommEnergy float64
}

// Prober answers F(i,k) probes against a Builder's committed state
// without mutating it: the paper's "restore the tables after each
// probe" holds because nothing shared is ever written. A Prober tracks
// the probe's own tentative reservations in a private overlay
// (transactions of one task can contend with each other on shared
// links) and only reads the shared tables. A probe reports exactly the
// placement Commit would make in the same state (TestProbePredictsCommit).
//
// A solve drives one Builder through one Prober on one goroutine.
// Probe itself writes only the prober's scratch (TestConcurrentProbers
// checks this under -race); ProbeCached and Row also write the
// builder's cache rows. After warm-up a probe performs no heap
// allocations (guarded by TestProbeZeroAllocs).
type Prober struct {
	b       *Builder
	overlay *schedtable.Overlay
	lct     []ctg.EdgeID
	work    Work
	// pairs tallies the run's probed incoming transactions per (source
	// PE, candidate PE), row-major over NumPEs; empty when the run
	// publishes no telemetry.
	pairs []int64

	// Row scratch: the keys and order of a task without a slot, and the
	// sort keys of the row being sorted.
	rowEntries []cacheEntry
	rowOrder   []int32
	rowHead    rowHead
	rowKey     []float64

	// Carried rows (carry.go): per ready-list slot, what the slot's last
	// row scan on this prober read.
	scans []rowScan
	reads []int32 // rows of NumPEs: the PEs each slot's scan probed
}

// NewProber returns a read-only prober for the builder.
func (b *Builder) NewProber() *Prober {
	return &Prober{
		b:       b,
		overlay: schedtable.NewOverlay(len(b.linkTables)),
	}
}

// Work returns the work this prober has counted since ListSchedule
// last started a run on it (since construction for any other prober).
func (p *Prober) Work() Work { return p.work }

// restart zeroes the prober's work for a new run and sizes its PE-pair
// tally for npe PEs, or empties it when the run is unmetered.
func (p *Prober) restart(npe int, metered bool) {
	p.work = Work{}
	p.pairs = p.pairs[:0]
	if metered {
		p.pairs = slices.Grow(p.pairs, npe*npe)[:npe*npe]
		clear(p.pairs)
	}
}

// tallyPairs counts one probe of task t on PE k in the PE-pair tally:
// one per incoming transaction, at (sender's PE, k).
func (p *Prober) tallyPairs(t ctg.TaskID, k int) {
	if len(p.pairs) == 0 {
		return
	}
	b := p.b
	npe := len(b.peTables)
	for _, eid := range b.g.In(t) {
		p.pairs[b.schedule.Tasks[b.g.Edge(eid).Src].PE*npe+k]++
	}
}

// lctLess orders incoming edges by sender finish time, ties on edge ID
// — the Fig. 3 LCT order place() uses.
func lctLess(b *Builder, a, c ctg.EdgeID) bool {
	fa := b.schedule.Tasks[b.g.Edge(a).Src].Finish
	fc := b.schedule.Tasks[b.g.Edge(c).Src].Finish
	if fa != fc {
		return fa < fc
	}
	return a < c
}

// Probe computes F(i,k): the placement task t would get on PE k given
// the builder's committed tables. The builder is not mutated. A plain
// probe is not recorded as a row read, so a row scan that probes
// through it is never carried (Carry).
func (p *Prober) Probe(t ctg.TaskID, k int) (ProbeResult, error) {
	p.dropScan(t)
	return p.probe(t, k)
}

// probe is Probe without the carried-row bookkeeping.
func (p *Prober) probe(t ctg.TaskID, k int) (ProbeResult, error) {
	p.work.Probes++
	b := p.b
	task := b.g.Task(t)
	if !task.RunnableOn(k) {
		return ProbeResult{}, fmt.Errorf("sched: task %d not runnable on PE %d", t, k)
	}

	// LCT: incoming transactions in ascending sender-finish order.
	// Insertion sort — the in-degree is tiny and sort.Slice allocates.
	p.lct = append(p.lct[:0], b.g.In(t)...)
	lct := p.lct
	for i := 1; i < len(lct); i++ {
		for j := i; j > 0 && lctLess(b, lct[j], lct[j-1]); j-- {
			lct[j], lct[j-1] = lct[j-1], lct[j]
		}
	}

	res := ProbeResult{Task: t, PE: k}
	p.overlay.Reset()
	for _, eid := range lct {
		e := b.g.Edge(eid)
		src := b.schedule.Tasks[e.Src]
		if !b.placed[e.Src] {
			return ProbeResult{}, fmt.Errorf("sched: task %d probed before predecessor %d committed", t, e.Src)
		}
		dur := b.acg.TransferTime(e.Volume, src.PE, k)
		var finish int64
		switch {
		case dur == 0:
			// Intra-tile delivery or control dependency: arrives the
			// moment the sender finishes, occupying no network.
			finish = src.Finish
		case b.contention:
			tabs, ids := b.routeTables(src.PE, k)
			start := schedtable.FindEarliestAllOverlay(tabs, ids, p.overlay, src.Finish, dur)
			for _, id := range ids {
				p.overlay.Add(int(id), start, dur)
			}
			finish = start + dur
			res.CommEnergy += b.acg.CommEnergy(e.Volume, src.PE, k)
		default:
			// Naive model: fixed delay, no link occupancy.
			finish = src.Finish + dur
			res.CommEnergy += b.acg.CommEnergy(e.Volume, src.PE, k)
		}
		if finish > res.DRT {
			res.DRT = finish
		}
	}
	p.tallyPairs(t, k)
	exec := task.ExecTime[k]
	start := b.peTables[k].FindEarliest(res.DRT, exec)
	res.Start, res.Finish = start, start+exec
	return res, nil
}

// FinishBound returns an upper bound on the Finish that Probe(t, k)
// reports, read from the tails of the tables that probe reads. A
// table's tail is the end of its last busy slot (schedtable.Tail);
// every time from the tail on is free. Let A be the largest sender
// finish and route-link tail over the in-edges that have a transfer.
// From A on, the transfers fit one after another in any order, so the
// data-ready time is at most the larger of the zero-time arrivals and
// A plus the summed transfer times, and the task starts on PE k by the
// larger of that and PE k's tail. The naive contention model reserves
// no links, so there A reads the sender finishes only.
//
// The bound saturates at math.MaxInt64 instead of wrapping, and is
// math.MaxInt64 wherever Probe would fail. It evaluates no probe and
// counts none; it only grows as the tables fill.
func (p *Prober) FinishBound(t ctg.TaskID, k int) int64 {
	b := p.b
	task := b.g.Task(t)
	if !task.RunnableOn(k) {
		return math.MaxInt64
	}
	var arrive, from, sum int64 // zero-time arrivals, A, summed transfers
	for _, eid := range b.g.In(t) {
		e := b.g.Edge(eid)
		if !b.placed[e.Src] {
			return math.MaxInt64
		}
		src := b.schedule.Tasks[e.Src]
		dur := b.acg.TransferTime(e.Volume, src.PE, k)
		if dur == 0 {
			arrive = max(arrive, src.Finish)
			continue
		}
		from = max(from, src.Finish)
		if b.contention {
			tabs, _ := b.routeTables(src.PE, k)
			for _, tab := range tabs {
				from = max(from, tab.Tail())
			}
		}
		sum = addSat(sum, dur)
	}
	drt := max(arrive, addSat(from, sum))
	return addSat(max(drt, b.peTables[k].Tail()), task.ExecTime[k])
}

// Settle records that ready task t's test on PE k was settled by
// FinishBound instead of a probe: it counts one settled test
// (Schedule.BoundSettled) and, for a task AppendReady has listed,
// records the read in the task's row scan as ProbeCached does, so Carry
// vouches for the row only while the tables the bound read are
// unwritten.
func (p *Prober) Settle(t ctg.TaskID, k int) {
	p.work.BoundSettled++
	if s := p.b.slot[t]; s >= 0 {
		p.noteRead(int(s), t, k)
	}
}

// addSat returns a+b for non-negative a and b, saturating at
// math.MaxInt64.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
