package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nocsched/internal/ctg"
)

// CommitOrder's failures: a per-PE order that contradicts the task graph
// (every remaining queue head waits on a task queued behind another
// head), and a rebuild its stop callback ended.
var (
	ErrOrderCycle = errors.New("sched: per-PE order conflicts with task dependencies")
	ErrStopped    = errors.New("sched: rebuild stopped by its caller")
)

// CommitOrder re-times a layout: it commits the tasks of order, each PE's
// queue in its given sequence, every task starting no earlier than its
// PE's previous one finishes. Among the ready queue heads it commits the
// one with the smallest max-predecessor finish (ties to the lower task
// ID), so link contention resolves the way it would at run time.
//
// CommitOrder resumes after whatever the builder has already committed:
// each PE's committed tasks must be the head of its queue, in commit
// order, and they fix the PE's queue position and last finish. On a
// freshly Reset builder that is the whole layout.
//
// stop, when non-nil, is called after each commit with the committed
// task; returning true ends the rebuild with ErrStopped, leaving the
// builder partially committed.
func (b *Builder) CommitOrder(order [][]ctg.TaskID, stop func(ctg.TaskID) bool) error {
	npe := len(order)
	if cap(b.orderPos) < npe {
		b.orderPos, b.orderLast = make([]int, npe), make([]int64, npe)
	}
	pos, last := b.orderPos[:npe], b.orderLast[:npe]
	clear(pos)
	clear(last)
	for _, t := range b.log {
		p := b.schedule.Tasks[t]
		if p.PE >= npe || pos[p.PE] >= len(order[p.PE]) || order[p.PE][pos[p.PE]] != t {
			return fmt.Errorf("sched: committed task %d is not next in PE %d's queue", t, p.PE)
		}
		pos[p.PE]++
		last[p.PE] = p.Finish
	}
	for b.nCommitted < b.g.NumTasks() {
		best, bestPE, bestKey := ctg.TaskID(-1), -1, int64(math.MaxInt64)
		for pe := range order {
			if pos[pe] >= len(order[pe]) {
				continue
			}
			t := order[pe][pos[pe]]
			if !b.Ready(t) {
				continue
			}
			if key := orderKey(b.g, b.schedule.Tasks, t); orderBefore(key, t, bestKey, best) {
				best, bestPE, bestKey = t, pe, key
			}
		}
		if best < 0 {
			return ErrOrderCycle
		}
		p, err := b.CommitAfter(best, bestPE, last[bestPE])
		if err != nil {
			return err
		}
		last[bestPE] = p.Finish
		pos[bestPE]++
		if stop != nil && stop(best) {
			return ErrStopped
		}
	}
	return nil
}

// orderKey is CommitOrder's key for a ready task t: the latest finish
// among its predecessors' placements.
func orderKey(g *ctg.Graph, tasks []TaskPlacement, t ctg.TaskID) int64 {
	key := int64(0)
	for _, eid := range g.In(t) {
		key = max(key, tasks[g.Edge(eid).Src].Finish)
	}
	return key
}

// orderBefore is CommitOrder's selection rule: head t with key beats the
// best head so far (bestKey, best) on a smaller key, ties to the lower
// task ID.
func orderBefore(key int64, t ctg.TaskID, bestKey int64, best ctg.TaskID) bool {
	return key < bestKey || (key == bestKey && t < best)
}

// Rewind undoes every commit after the first n: it releases their PE
// and link reservations, restores the placed flags, pending counts and
// ready list, and invalidates the probe cache. Commits made before the
// last AppendReady cannot be undone (that call compacts the ready list),
// nor can commits made under another contention model. Rewind panics
// when n is outside that range, or when a reservation it releases is
// missing, which would mean the tables were written behind its back.
func (b *Builder) Rewind(n int) {
	if n < b.rewindFloor || n > b.nCommitted {
		panic(fmt.Sprintf("sched: rewind to %d of %d commits (floor %d)", n, b.nCommitted, b.rewindFloor))
	}
	for i := len(b.log) - 1; i >= n; i-- {
		t := b.log[i]
		p := b.schedule.Tasks[t]
		must(b.peTables[p.PE].Release(p.Start, p.Finish-p.Start))
		for _, eid := range b.g.In(t) {
			tr := b.schedule.Transactions[eid]
			if !b.contention || tr.Finish == tr.Start {
				continue
			}
			tables, _ := b.routeTables(tr.SrcPE, tr.DstPE)
			for _, tab := range tables {
				must(tab.Release(tr.Start, tr.Finish-tr.Start))
			}
		}
		b.placed[t] = false
		for _, eid := range b.g.Out(t) {
			b.pending[b.g.Edge(eid).Dst]++
		}
		b.ready = b.ready[:b.logReady[i]]
	}
	b.nCommitted = n
	b.log, b.logReady = b.log[:n], b.logReady[:n]
	b.invalidate()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// OrderTrace indexes one complete CommitOrder run for Divergence: the
// commit sequence and, per task, its PE, the step that committed it, the
// first step at which all its predecessors were committed, and its
// CommitOrder key.
type OrderTrace struct {
	seq     []ctg.TaskID
	pe      []int
	step    []int32
	readyAt []int32
	key     []int64
	pos     []int // Divergence's per-changed-PE queue positions
}

// Record indexes the commits b has made. It copies what it keeps, so
// the builder may be rewound afterwards. Divergence needs a completed
// run; of a stopped one, only Seq is meaningful.
func (tr *OrderTrace) Record(b *Builder) {
	g := b.g
	n := g.NumTasks()
	tr.seq = append(tr.seq[:0], b.log...)
	tr.pe = slices.Grow(tr.pe[:0], n)[:n]
	tr.step = slices.Grow(tr.step[:0], n)[:n]
	tr.readyAt = slices.Grow(tr.readyAt[:0], n)[:n]
	tr.key = slices.Grow(tr.key[:0], n)[:n]
	for j, t := range tr.seq {
		tr.step[t] = int32(j)
		tr.pe[t] = b.schedule.Tasks[t].PE
	}
	for i := range n {
		t := ctg.TaskID(i)
		at := int32(0)
		for _, eid := range g.In(t) {
			at = max(at, tr.step[g.Edge(eid).Src]+1)
		}
		tr.readyAt[t] = at
		tr.key[t] = orderKey(g, b.schedule.Tasks, t)
	}
}

// Seq returns the recorded commit sequence (trace storage).
func (tr *OrderTrace) Seq() []ctg.TaskID { return tr.seq }

// Divergence returns the first step at which CommitOrder on order
// commits something other than the recorded sequence, or its length if
// it never does. order must equal the recorded run's layout except in
// the queues of the distinct PEs listed in changed.
//
// Up to the divergence the two runs reach the same builder state, so
// the recorded placements give every ready task's key and readiness.
// An unchanged PE's head is then the same in both runs, and it lost
// to the recorded commit; the scan checks the changed PEs' heads alone,
// with CommitOrder's own readiness test, key and selection rule.
func (tr *OrderTrace) Divergence(order [][]ctg.TaskID, changed []int) int {
	pos := slices.Grow(tr.pos[:0], len(changed))[:len(changed)]
	tr.pos = pos
	clear(pos)
	for j, t := range tr.seq {
		for c, pe := range changed {
			q := order[pe]
			if pe == tr.pe[t] {
				// The recorded commit's own queue: its head must be t.
				if pos[c] >= len(q) || q[pos[c]] != t {
					return j
				}
				pos[c]++
				continue
			}
			if pos[c] >= len(q) {
				continue
			}
			h := q[pos[c]]
			ready := tr.readyAt[h] <= int32(j) && tr.step[h] >= int32(j)
			if ready && orderBefore(tr.key[h], h, tr.key[t], t) {
				return j
			}
		}
	}
	return len(tr.seq)
}
