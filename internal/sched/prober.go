package sched

import (
	"fmt"

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
// Each Prober owns its scratch, so distinct Probers may probe
// concurrently against one Builder — as long as no Commit runs in
// parallel with them. After warm-up a probe performs no heap
// allocations (guarded by TestProbeZeroAllocs).
type Prober struct {
	b       *Builder
	overlay *schedtable.Overlay
	lct     []ctg.EdgeID
	probes  int64
	reuses  int64

	// Row scratch: the keys and order of a task without a slot, and the
	// sort keys of the row being sorted.
	rowEntries []cacheEntry
	rowOrder   []int32
	rowHead    rowHead
	rowKey     []float64
}

// NewProber returns a read-only prober for the builder.
//
// Telemetry handles are read from the builder at probe time (not cached
// here), so SetMetrics calls made after the prober — or a pool reusing
// it across Builder.Reset cycles — was constructed still take effect.
// Every handle is nil-safe, so disabled telemetry costs two nil checks
// per probe; the zero-alloc guards cover both states.
func (b *Builder) NewProber() *Prober {
	return &Prober{
		b:       b,
		overlay: schedtable.NewOverlay(len(b.linkTables)),
	}
}

// Probes returns the number of probes this prober has evaluated,
// answers ProbeCached reused included.
func (p *Prober) Probes() int64 { return p.probes }

// Reuses returns how many of Probes were ProbeCached answers served
// from the cache rather than evaluated.
func (p *Prober) Reuses() int64 { return p.reuses }

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
// the builder's committed tables. The builder is not mutated.
func (p *Prober) Probe(t ctg.TaskID, k int) (ProbeResult, error) {
	p.probes++
	b := p.b
	b.metrics.probes().Inc()
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
	pairs := b.metrics.probePairs()
	p.overlay.Reset()
	for _, eid := range lct {
		e := b.g.Edge(eid)
		src := b.schedule.Tasks[e.Src]
		if !b.placed[e.Src] {
			return ProbeResult{}, fmt.Errorf("sched: task %d probed before predecessor %d committed", t, e.Src)
		}
		dur := b.acg.TransferTime(e.Volume, src.PE, k)
		pairs.Add(src.PE, k, 1)
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
	exec := task.ExecTime[k]
	start := b.peTables[k].FindEarliest(res.DRT, exec)
	res.Start, res.Finish = start, start+exec
	return res, nil
}
