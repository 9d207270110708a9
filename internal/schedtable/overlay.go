package schedtable

// Overlay layers tentative reservations over committed tables without
// mutating them. It is how the F(i,k) probe honours the paper's
// "restore the tables after each probe": instead of reserving a
// transaction's slots on the shared link tables and undoing them, a
// probe records the slots privately, so the shared tables stay
// untouched and many probes can run concurrently against them.
//
// Resources are identified by small integer IDs chosen by the caller
// (the scheduler uses link indices). One overlay serves one probe at a
// time: Reset it, then alternate FindEarliestAllOverlay queries with
// Add calls as the probe's transactions are tentatively placed.
//
// An Overlay is not safe for concurrent use; give each concurrent
// prober its own.
type Overlay struct {
	pending [][]Interval
	touched []int
}

// NewOverlay returns an overlay for resources with IDs in [0, n).
func NewOverlay(n int) *Overlay {
	return &Overlay{pending: make([][]Interval, n)}
}

// Grow extends the overlay to resources with IDs in [0, n); it never
// shrinks, and keeps the tentative reservations it holds.
func (o *Overlay) Grow(n int) {
	if n > len(o.pending) {
		o.pending = append(o.pending, make([][]Interval, n-len(o.pending))...)
	}
}

// Reset discards all tentative reservations. It is O(resources touched
// since the last Reset), not O(n).
func (o *Overlay) Reset() {
	for _, id := range o.touched {
		o.pending[id] = o.pending[id][:0]
	}
	o.touched = o.touched[:0]
}

// Add records the tentative reservation [start, start+dur) on resource
// id. Zero-duration reservations are no-ops. The caller is responsible
// for having verified the slot is free (FindEarliestAllOverlay does).
func (o *Overlay) Add(id int, start, dur int64) {
	if dur <= 0 {
		return
	}
	if len(o.pending[id]) == 0 {
		o.touched = append(o.touched, id)
	}
	o.pending[id] = append(o.pending[id], Interval{Start: start, End: start + dur})
}

// conflict advances start past every pending interval of resource id
// overlapping [start, start+dur) and reports whether it moved. Pending
// lists are unsorted but tiny (bounded by a task's in-degree), so a
// linear scan wins over keeping them ordered.
func (o *Overlay) conflict(id int, start, dur int64) (int64, bool) {
	moved := false
	for _, iv := range o.pending[id] {
		if iv.Start < start+dur && start < iv.End {
			start = iv.End
			moved = true
		}
	}
	return start, moved
}

// FindEarliestAllOverlay returns the earliest time s >= from such that
// [s, s+dur) is simultaneously free in every table AND in the overlay's
// pending reservations for the corresponding resource IDs. ids[i] names
// the overlay resource of tables[i] (len(ids) must equal len(tables));
// a nil overlay degrades to FindEarliestAll.
//
// This is the side-effect-free form of the reserve-query-rollback
// sequence: the result is identical to reserving the overlay's pending
// slots into the tables and calling FindEarliestAll, because both
// compute the unique earliest point at or after from that conflicts
// with nothing in the union.
func FindEarliestAllOverlay[ID ~int](tables []*Table, ids []ID, o *Overlay, from, dur int64) int64 {
	if dur <= 0 || len(tables) == 0 {
		return from
	}
	if o == nil {
		return FindEarliestAll(tables, from, dur)
	}
	var hintBuf [mergeStackTables]int
	var hints []int
	if len(tables) <= mergeStackTables {
		hints = hintBuf[:len(tables)]
	} else {
		hints = make([]int, len(tables))
	}
	for i := range hints {
		hints[i] = -1
	}
	s := from
	for {
		moved := false
		for i, t := range tables {
			iv, hint, clash := t.conflictFrom(s, dur, hints[i])
			hints[i] = hint
			if clash {
				s = iv.End
				moved = true
			}
			if next, clash := o.conflict(int(ids[i]), s, dur); clash {
				s = next
				moved = true
			}
		}
		if !moved {
			return s
		}
	}
}
