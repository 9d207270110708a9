// Package schedtable implements the schedule tables at the heart of the
// paper's co-scheduler (Fig. 1 right, Fig. 3): one table per shared
// resource — a PE or a directed link — recording the busy time slots
// committed so far.
//
// The communication scheduler of Fig. 3 needs three operations:
//
//   - build the schedule table of a *path* by merging the occupied slots
//     of its comprising links (FindEarliestAll),
//   - find the earliest feasible slot at or after a release time
//     (FindEarliest / FindEarliestAll),
//   - evaluate F(i,k) against tentative reservations and leave the
//     tables as they were ("the schedule tables of both links and the
//     PEs will be restored every time a F(i,k) is calculated") — Overlay,
//     which keeps a probe's reservations private so the shared tables
//     are only ever read.
//
// Intervals are half-open [Start, End) over int64 abstract time units.
package schedtable

import (
	"fmt"
	"sort"
)

// Interval is a half-open busy slot [Start, End).
type Interval struct {
	Start, End int64
}

// Table is the schedule table of one shared resource. The zero value is
// an empty (fully free) table. Tables are not safe for concurrent
// mutation.
type Table struct {
	// busy is kept sorted by Start; entries never overlap (merging of
	// adjacent entries is not performed, so Release can remove exactly
	// what Reserve inserted).
	busy []Interval
}

// Reset removes all reservations.
func (t *Table) Reset() { t.busy = t.busy[:0] }

// Tail returns the end of the table's last busy slot, or 0 for an empty
// table: every time from the tail on is free. Slots are sorted by
// Start and never overlap, so the last one ends last.
func (t *Table) Tail() int64 {
	if n := len(t.busy); n > 0 {
		return t.busy[n-1].End
	}
	return 0
}

// firstAtOrAfter returns the index of the first busy slot with
// End > start (i.e. the first slot that could conflict with anything at
// or after start).
func (t *Table) firstAtOrAfter(start int64) int {
	return sort.Search(len(t.busy), func(i int) bool { return t.busy[i].End > start })
}

// Conflict returns the first committed slot overlapping [start,
// start+dur) and true, or a zero Interval and false if the window is
// free. Zero-duration windows never conflict.
func (t *Table) Conflict(start, dur int64) (Interval, bool) {
	if dur <= 0 {
		return Interval{}, false
	}
	i := t.firstAtOrAfter(start)
	if i < len(t.busy) && t.busy[i].Start < start+dur {
		return t.busy[i], true
	}
	return Interval{}, false
}

// FindEarliest returns the earliest time s >= from such that [s, s+dur)
// is free. For dur <= 0 it returns from.
func (t *Table) FindEarliest(from, dur int64) int64 {
	if dur <= 0 {
		return from
	}
	s := from
	for i := t.firstAtOrAfter(s); i < len(t.busy); i++ {
		if t.busy[i].Start >= s+dur {
			break // gap before busy[i] is large enough
		}
		s = t.busy[i].End
	}
	return s
}

// Reserve commits the slot [start, start+dur). It fails if the slot
// overlaps an existing reservation; on failure the table is unchanged.
// Zero-duration reservations are no-ops.
func (t *Table) Reserve(start, dur int64) error {
	if dur < 0 {
		return fmt.Errorf("schedtable: negative duration %d", dur)
	}
	if dur == 0 {
		return nil
	}
	if iv, clash := t.Conflict(start, dur); clash {
		return fmt.Errorf("schedtable: slot [%d,%d) conflicts with [%d,%d)",
			start, start+dur, iv.Start, iv.End)
	}
	i := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].Start >= start })
	t.busy = append(t.busy, Interval{})
	copy(t.busy[i+1:], t.busy[i:])
	t.busy[i] = Interval{Start: start, End: start + dur}
	return nil
}

// Release removes the exact slot [start, start+dur) previously committed
// by Reserve. It fails if no such slot exists. Zero-duration releases
// are no-ops.
func (t *Table) Release(start, dur int64) error {
	if dur == 0 {
		return nil
	}
	want := Interval{Start: start, End: start + dur}
	i := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].Start >= start })
	if i < len(t.busy) && t.busy[i] == want {
		t.busy = append(t.busy[:i], t.busy[i+1:]...)
		return nil
	}
	return fmt.Errorf("schedtable: no reservation [%d,%d) to release", want.Start, want.End)
}

// conflictFrom is Conflict with a resume cursor. hint must be a valid
// lower bound on firstAtOrAfter(start) — either -1 (unpositioned: a
// binary search locates the cursor) or the index returned by a previous
// conflictFrom call with a start no larger than this one. The returned
// index is the cursor to pass to the next call. Because the candidate
// start only advances during a path merge, the cursor walks each busy
// list at most once per merge instead of re-searching from scratch on
// every round.
func (t *Table) conflictFrom(start, dur int64, hint int) (Interval, int, bool) {
	i := hint
	if i < 0 {
		i = t.firstAtOrAfter(start)
	} else {
		for i < len(t.busy) && t.busy[i].End <= start {
			i++
		}
	}
	if i < len(t.busy) && t.busy[i].Start < start+dur {
		return t.busy[i], i, true
	}
	return Interval{}, i, false
}

// mergeStackTables bounds the cursor scratch FindEarliestAll keeps on
// the stack; longer paths (very large topologies) fall back to one heap
// allocation per call.
const mergeStackTables = 16

// FindEarliestAll returns the earliest time s >= from such that
// [s, s+dur) is simultaneously free in every table. This is the Fig. 3
// path-table query: the path's schedule table is the union of the busy
// slots of its comprising links, and the transaction goes into the
// earliest hole that fits. The iteration advances s to the end of some
// conflicting slot on every round, so it terminates after at most the
// total number of busy slots across the tables; per-table resume
// cursors (conflictFrom) make each round O(1) amortized instead of a
// fresh binary search.
func FindEarliestAll(tables []*Table, from, dur int64) int64 {
	if dur <= 0 || len(tables) == 0 {
		return from
	}
	if len(tables) == 1 {
		return tables[0].FindEarliest(from, dur)
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
		}
		if !moved {
			return s
		}
	}
}

// ReserveAll commits [start, start+dur) in every table, rolling back on
// the first failure so the operation is atomic.
//
// The rollback releases exactly the slots the call just inserted into
// the preceding tables, so it cannot fail for any input — including
// aliased tables in the slice (the duplicate's Reserve fails before a
// second insertion happens). The panic below is therefore unreachable;
// it exists so a future regression fails loudly instead of leaving the
// tables half-committed.
func ReserveAll(tables []*Table, start, dur int64) error {
	for i, t := range tables {
		if err := t.Reserve(start, dur); err != nil {
			for _, u := range tables[:i] {
				// The preceding reservations are exactly what we
				// inserted, so releasing them cannot fail.
				if rerr := u.Release(start, dur); rerr != nil {
					panic("schedtable: rollback of fresh reservation failed: " + rerr.Error())
				}
			}
			return err
		}
	}
	return nil
}
