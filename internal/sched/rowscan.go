package sched

import (
	"cmp"
	"fmt"
	"slices"

	"nocsched/internal/ctg"
)

// A row scan answers a per-task question over the PEs — EAS Step 2's
// E1/E2 and earliest finish, DLS's best dynamic level, EDF's earliest
// finish — without probing every PE. Each runnable PE k of a ready task
// has two keys that need no probe and are final once the task is ready,
// because they read only its predecessors' placements:
//
//   - drtLB, the largest sender finish plus transfer time over the
//     in-edges. A transaction never starts before its sender finishes,
//     so drtLB bounds the probe's DRT, and so its start, from below.
//   - comm, the incoming communication energy, summed in the LCT order
//     Probe uses, so it equals the probe's CommEnergy bit for bit.
//
// A scheduler sorts the runnable PEs by its own key, once per ready-list
// slot, visits them in that order and stops once the keys prove no
// unprobed PE can change its answer. Stop rules look at one row only.
type rowKeys struct {
	drtLB int64
	comm  float64
}

// RowKind names the key a row's order is sorted by, so that a row sorted
// for one scheduler is never read as sorted for another.
type RowKind uint8

const (
	rowUnsorted RowKind = iota
	// RowByCost is EAS Step 2's order: ascending e_i[k] + comm.
	RowByCost
	// RowByLevel is DLS's order: descending dynamic-level bound.
	RowByLevel
	// rowByFinish is EarliestFinishPE's order: ascending drtLB + exec.
	rowByFinish
)

// rowHead records how a row's order is sorted: by which key, and how
// many runnable PEs it lists.
type rowHead struct {
	kind RowKind
	n    int32
}

// A RowKey ranks PE k of a row from the task's keys there; the scan
// visits smaller keys first, ties to the lower PE.
type RowKey func(k int, drtLB int64, comm float64) float64

// Row is a ready task's row-scan view. It is valid until the task is
// committed, or, for a task AppendReady has not listed, until the
// prober's next Row call.
type Row struct {
	// Order lists the task's runnable PEs by ascending key, ties to the
	// lower PE.
	Order []int32
	e     []cacheEntry
}

// DRTBound returns a lower bound on the data-ready time, and so on the
// start, of the task on PE k.
func (r Row) DRTBound(k int) int64 { return r.e[k].keys.drtLB }

// Comm returns the task's incoming communication energy on PE k: what
// every probe of it there reports as CommEnergy, bit for bit.
func (r Row) Comm(k int) float64 { return r.e[k].keys.comm }

// Row returns ready task t's row with its runnable PEs in key order. A
// task AppendReady has listed keeps its keys and order in its slot, so
// the order is sorted on the first call per kind and reused until the
// task commits; any other task's row is built in prober scratch on every
// call. For a listed task, Row also starts the row scan Carry vouches
// for.
func (p *Prober) Row(t ctg.TaskID, kind RowKind, key RowKey) Row {
	b := p.b
	npe := len(b.peTables)
	var e []cacheEntry
	var order []int32
	var head *rowHead
	p.work.RowScans++
	if s := int(b.slot[t]); s >= 0 {
		e = b.cache[s*npe : (s+1)*npe]
		order = b.orders[s*npe : (s+1)*npe]
		head = &b.heads[s]
		p.recordScan(s, t)
	} else {
		p.rowEntries = slices.Grow(p.rowEntries[:0], npe)[:npe]
		p.rowOrder = slices.Grow(p.rowOrder[:0], npe)[:npe]
		e, order, head = p.rowEntries, p.rowOrder, &p.rowHead
		clear(e)
		b.fillKeys(t, e, &p.lct)
		*head = rowHead{}
	}
	if head.kind != kind {
		head.n = p.sortRow(t, e, order, key)
		head.kind = kind
	}
	return Row{Order: order[:head.n], e: e}
}

// EarliestFinishPE returns the placement of task t with the strictly
// earliest finish over the PEs that can run it, ties broken toward the
// lowest PE index — the EDF inner loop. If no PE can run t, an error is
// returned.
//
// It scans t's row (Prober.Row) by ascending finish bound drtLB + exec
// and stops once the bound passes the best finish found, so it probes
// only the PEs that could still win; the answer is the full scan's bit
// for bit. It uses plain Probe: EDF commits the task right after, so a
// cached probe would never be reused.
func (p *Prober) EarliestFinishPE(t ctg.TaskID) (ProbeResult, error) {
	task := p.b.g.Task(t)
	row := p.Row(t, rowByFinish, func(k int, drtLB int64, _ float64) float64 {
		return float64(drtLB + task.ExecTime[k])
	})
	best := ProbeResult{PE: -1}
	for _, k32 := range row.Order {
		k := int(k32)
		if best.PE >= 0 {
			bound := row.DRTBound(k) + task.ExecTime[k]
			// The order is by float64(bound), which is monotone, so past
			// a larger float no later PE can finish by best.Finish.
			if float64(bound) > float64(best.Finish) {
				break
			}
			if bound > best.Finish || (bound == best.Finish && k > best.PE) {
				continue
			}
		}
		r, err := p.Probe(t, k)
		if err != nil {
			return ProbeResult{}, err
		}
		if best.PE < 0 || r.Finish < best.Finish || (r.Finish == best.Finish && k < best.PE) {
			best = r
		}
	}
	if best.PE < 0 {
		return ProbeResult{}, fmt.Errorf("sched: task %d runnable on no PE", t)
	}
	return best, nil
}

// fillKeys sets the keys of ready task t on every runnable PE of row,
// using lct as scratch for the task's in-edges in LCT order.
func (b *Builder) fillKeys(t ctg.TaskID, row []cacheEntry, lct *[]ctg.EdgeID) {
	in := append((*lct)[:0], b.g.In(t)...)
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && lctLess(b, in[j], in[j-1]); j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
	*lct = in
	task := b.g.Task(t)
	for k := range row {
		if !task.RunnableOn(k) {
			continue
		}
		var keys rowKeys
		for _, eid := range in {
			e := b.g.Edge(eid)
			src := b.schedule.Tasks[e.Src]
			dur := b.acg.TransferTime(e.Volume, src.PE, k)
			if dur != 0 {
				keys.comm += b.acg.CommEnergy(e.Volume, src.PE, k)
			}
			keys.drtLB = max(keys.drtLB, src.Finish+dur)
		}
		row[k].keys = keys
	}
}

// sortRow writes task t's runnable PEs into order by ascending key (a
// total order: cmp.Compare puts NaN first), ties to the lower PE, and
// returns how many there are.
func (p *Prober) sortRow(t ctg.TaskID, e []cacheEntry, order []int32, key RowKey) int32 {
	task := p.b.g.Task(t)
	p.rowKey = slices.Grow(p.rowKey[:0], len(e))[:len(e)]
	keys := p.rowKey
	n := 0
	for k := range e {
		if !task.RunnableOn(k) {
			continue
		}
		keys[k] = key(k, e[k].keys.drtLB, e[k].keys.comm)
		order[n] = int32(k)
		// Insertion sort: PEs arrive in ascending index, so equal keys
		// keep the lower PE first.
		for i := n; i > 0 && cmp.Less(keys[k], keys[order[i-1]]); i-- {
			order[i], order[i-1] = order[i-1], order[i]
		}
		n++
	}
	return int32(n)
}
