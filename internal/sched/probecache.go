package sched

import (
	"slices"

	"nocsched/internal/ctg"
)

// probeCache lets Prober.ProbeCached answer an F(i,k) probe without
// re-evaluating it when nothing the probe reads has changed. A probe of
// ready task t on PE k is a pure function of PE k's table, the link
// tables on the routes from t's predecessors' PEs to k, and those
// predecessors' placements — final once t is ready. So every write to a
// table records a stamp on it, and a cached answer taken at stamp s is
// exact while no table it reads carries a stamp after s.
//
// Changes to what a probe reads besides tables (the contention model,
// Reset) move base instead: entries older than base are
// stale whatever the tables say.
//
// Entries live in rows of NumPEs, one row per ready-list slot: a task
// takes a slot when AppendReady first lists it and frees it on commit,
// so the storage is the peak ready-list depth x NumPEs, not tasks x PEs.
// Slots change hands only on the caller's goroutine, between pool runs.
// Each row also holds the task's row-scan keys and PE order (rowscan.go),
// which, unlike the cached probes, never go stale.
type probeCache struct {
	stamp, base uint64
	peStamp     []uint64
	linkStamp   []uint64

	slot      []int32 // per task: its row while ready, else -1
	freeSlots []int32
	cache     []cacheEntry // rows of NumPEs entries
	orders    []int32      // rows of NumPEs: the slot's scan order
	heads     []rowHead    // per slot: how its order is sorted
}

// cacheEntry is one PE of a slot row: the task's keys on the PE, set
// when the slot is taken, and the cached probe, exact while its stamp
// is fresh. The probe's Finish is start plus the task's execution time
// on the PE, and its CommEnergy is comm, which the key computes bit for
// bit.
type cacheEntry struct {
	stamp      uint64
	start, drt int64
	keys       rowKeys
}

// invalidate makes every cached entry stale.
func (b *Builder) invalidate() {
	b.stamp++
	b.base = b.stamp
}

// resizeStamps sizes the per-table stamps for the builder's platform.
func (b *Builder) resizeStamps() {
	b.peStamp = make([]uint64, len(b.peTables))
	b.linkStamp = make([]uint64, len(b.linkTables))
}

// resetSlots frees every slot for a run of n tasks, keeping the row
// storage's capacity, and invalidates the cache.
func (b *Builder) resetSlots(n int) {
	b.slot = slices.Grow(b.slot[:0], n)[:n]
	for i := range b.slot {
		b.slot[i] = -1
	}
	b.freeSlots = b.freeSlots[:0]
	b.cache = b.cache[:0]
	b.orders = b.orders[:0]
	b.heads = b.heads[:0]
	b.invalidate()
}

// takeSlot gives ready task t a row holding its keys and no cached
// probe.
func (b *Builder) takeSlot(t ctg.TaskID) {
	npe := len(b.peTables)
	var s int
	if n := len(b.freeSlots); n > 0 {
		s = int(b.freeSlots[n-1])
		b.freeSlots = b.freeSlots[:n-1]
	} else {
		s = len(b.heads)
		b.cache = slices.Grow(b.cache, npe)[:len(b.cache)+npe]
		b.orders = slices.Grow(b.orders, npe)[:len(b.orders)+npe]
		b.heads = append(b.heads, rowHead{})
	}
	row := b.cache[s*npe : (s+1)*npe]
	clear(row)
	b.fillKeys(t, row, &b.lct)
	b.heads[s] = rowHead{}
	b.slot[t] = int32(s)
}

// freeSlot returns committed task t's row.
func (b *Builder) freeSlot(t ctg.TaskID) {
	b.freeSlots = append(b.freeSlots, b.slot[t])
	b.slot[t] = -1
}

// fresh reports whether an entry for task t on PE k taken at stamp s is
// still exact. It walks the same routes the probe walks, comparing
// stamps only.
func (b *Builder) fresh(s uint64, t ctg.TaskID, k int) bool {
	if s < b.base || b.peStamp[k] > s {
		return false
	}
	if !b.contention {
		return true
	}
	for _, eid := range b.g.In(t) {
		_, ids := b.routeTables(b.schedule.Tasks[b.g.Edge(eid).Src].PE, k)
		for _, id := range ids {
			if b.linkStamp[id] > s {
				return false
			}
		}
	}
	return true
}

// ProbeCached is Probe for a ready task, answered from the builder's
// probe cache when no table the probe reads has been written since it
// was last evaluated on this builder, and evaluated (and cached)
// otherwise. The answer is identical to Probe's either way, and a
// reused answer still counts as one probe everywhere Probe is counted;
// Reuses counts it separately. A task AppendReady has not listed yet
// has no cache row and is always evaluated.
//
// The cache row of task t belongs to whichever prober probes t: calls
// for one task must not run concurrently. The Step 2 and DLS row
// evaluators meet this by probing each ready task from one worker per
// ProbePool run. Probe itself stays free of that rule.
func (p *Prober) ProbeCached(t ctg.TaskID, k int) (ProbeResult, error) {
	b := p.b
	npe := len(b.peTables)
	s := b.slot[t]
	if s < 0 || k < 0 || k >= npe {
		return p.Probe(t, k)
	}
	e := &b.cache[int(s)*npe+k]
	if !b.fresh(e.stamp, t, k) {
		r, err := p.Probe(t, k)
		if err == nil {
			e.stamp, e.start, e.drt = b.stamp, r.Start, r.DRT
		}
		return r, err
	}
	p.probes++
	p.reuses++
	b.metrics.probes().Inc()
	b.metrics.reuses().Inc()
	if pairs := b.metrics.probePairs(); pairs != nil {
		for _, eid := range b.g.In(t) {
			pairs.Add(b.schedule.Tasks[b.g.Edge(eid).Src].PE, k, 1)
		}
	}
	return ProbeResult{Task: t, PE: k, Start: e.start, Finish: e.start + b.g.Task(t).ExecTime[k],
		DRT: e.drt, CommEnergy: e.keys.comm}, nil
}
