package schedtable

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestTailIsLastEnd: Tail is the latest end of any busy slot, whatever
// order the slots were reserved in, 0 on an empty table, and every
// window from the tail on is free.
func TestTailIsLastEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table
	if got := tb.Tail(); got != 0 {
		t.Fatalf("empty table: Tail = %d, want 0", got)
	}
	var last int64
	for range 200 {
		start, dur := rng.Int63n(5000), 1+rng.Int63n(40)
		if tb.Reserve(start, dur) == nil {
			last = max(last, start+dur)
		}
		if got := tb.Tail(); got != last {
			t.Fatalf("Tail = %d, want the latest end %d", got, last)
		}
		if got := tb.FindEarliest(last, 1+rng.Int63n(100)); got != last {
			t.Fatalf("FindEarliest from the tail %d = %d", last, got)
		}
	}
}

func TestReserveAndConflict(t *testing.T) {
	var tb Table
	if err := tb.Reserve(10, 5); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reserve(15, 5); err != nil {
		t.Fatalf("adjacent reservation should succeed: %v", err)
	}
	if err := tb.Reserve(12, 1); err == nil {
		t.Fatal("overlapping reservation should fail")
	}
	if err := tb.Reserve(0, 11); err == nil {
		t.Fatal("reservation overlapping from the left should fail")
	}
	if err := tb.Reserve(0, 10); err != nil {
		t.Fatalf("exactly-fitting gap should succeed: %v", err)
	}
	if got := len(tb.busy); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	// Zero-duration is a no-op.
	if err := tb.Reserve(12, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.busy); got != 3 {
		t.Fatalf("zero-duration reservation changed the table")
	}
	if err := tb.Reserve(5, -1); err == nil {
		t.Fatal("negative duration should fail")
	}
}

func TestFindEarliest(t *testing.T) {
	var tb Table
	mustReserve(t, &tb, 10, 10) // [10,20)
	mustReserve(t, &tb, 30, 10) // [30,40)

	cases := []struct {
		from, dur, want int64
	}{
		{0, 5, 0},     // fits before the first slot
		{0, 10, 0},    // exactly fits the head gap
		{0, 11, 40},   // neither the head gap nor the 10-long middle gap fits
		{20, 10, 20},  // exactly fits the middle gap
		{0, 15, 40},   // both gaps too small
		{12, 5, 20},   // release inside a busy slot
		{25, 5, 25},   // fits in the middle gap
		{25, 6, 40},   // middle gap from 25 is only 5 long
		{100, 7, 100}, // after everything
		{5, 0, 5},     // zero duration returns from
	}
	for _, c := range cases {
		if got := tb.FindEarliest(c.from, c.dur); got != c.want {
			t.Errorf("FindEarliest(%d,%d) = %d, want %d", c.from, c.dur, got, c.want)
		}
	}
}

func TestRelease(t *testing.T) {
	var tb Table
	mustReserve(t, &tb, 10, 10)
	mustReserve(t, &tb, 30, 10)
	if err := tb.Release(10, 5); err == nil {
		t.Fatal("partial release should fail")
	}
	if err := tb.Release(10, 10); err != nil {
		t.Fatal(err)
	}
	if err := tb.Release(10, 10); err == nil {
		t.Fatal("double release should fail")
	}
	if got := tb.FindEarliest(0, 100); got != 0 {
		// only [30,40) left; a 100-long window must start at 40
		if got != 40 {
			t.Fatalf("FindEarliest after release = %d", got)
		}
	}
}

func TestFindEarliestAll(t *testing.T) {
	var a, b, c Table
	mustReserve(t, &a, 0, 10)  // a busy [0,10)
	mustReserve(t, &b, 15, 10) // b busy [15,25)
	mustReserve(t, &c, 28, 4)  // c busy [28,32)

	tables := []*Table{&a, &b, &c}
	// Need 5 free on all: [10,15) works.
	if got := FindEarliestAll(tables, 0, 5); got != 10 {
		t.Errorf("FindEarliestAll dur=5: got %d, want 10", got)
	}
	// Need 6: [10,15) too small (b busy at 15), next candidate 25, but c
	// busy [28,32) -> 32.
	if got := FindEarliestAll(tables, 0, 6); got != 32 {
		t.Errorf("FindEarliestAll dur=6: got %d, want 32", got)
	}
	// Empty table list: returns from.
	if got := FindEarliestAll(nil, 7, 5); got != 7 {
		t.Errorf("FindEarliestAll no tables: got %d, want 7", got)
	}
}

func TestReserveAllAtomic(t *testing.T) {
	var a, b Table
	mustReserve(t, &b, 5, 10)
	if err := ReserveAll([]*Table{&a, &b}, 0, 8); err == nil {
		t.Fatal("ReserveAll should fail when one table conflicts")
	}
	if len(a.busy) != 0 {
		t.Fatal("failed ReserveAll left a reservation behind in table a")
	}
	if err := ReserveAll([]*Table{&a, &b}, 20, 8); err != nil {
		t.Fatal(err)
	}
	if len(a.busy) != 1 || len(b.busy) != 2 {
		t.Fatalf("ReserveAll lengths: a=%d b=%d", len(a.busy), len(b.busy))
	}
}

// TestJournalReserveAllRollsBackOnFailure: multi-table commits once went
// through an undo journal; they now call ReserveAll directly, which keeps
// the same guarantee. A ReserveAll that fails on its last table leaves
// every earlier table, pre-existing slots included, exactly as it was.
func TestJournalReserveAllRollsBackOnFailure(t *testing.T) {
	var a, b, c Table
	mustReserve(t, &a, 30, 5)
	mustReserve(t, &b, 40, 5)
	mustReserve(t, &c, 0, 5)
	tables := []*Table{&a, &b, &c}
	before := make([][]Interval, len(tables))
	for i, tb := range tables {
		before[i] = append([]Interval(nil), tb.busy...)
	}
	if err := ReserveAll(tables, 0, 5); err == nil {
		t.Fatal("expected failure")
	}
	for i, tb := range tables {
		if got := tb.busy; !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("failed ReserveAll left table %d as %v, want %v", i, got, before[i])
		}
	}
}

// refTable is a brute-force oracle: a boolean busy map over time.
type refTable map[int64]bool

func (r refTable) free(start, dur int64) bool {
	for t := start; t < start+dur; t++ {
		if r[t] {
			return false
		}
	}
	return true
}

func (r refTable) findEarliest(from, dur int64) int64 {
	for s := from; ; s++ {
		if r.free(s, dur) {
			return s
		}
	}
}

// TestPropertyAgainstOracle drives a Table and the brute-force oracle
// with the same random operation sequence and checks they always agree.
func TestPropertyAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var tb Table
		ref := refTable{}
		type res struct{ s, d int64 }
		var committed []res
		for op := 0; op < 60; op++ {
			switch rng.Intn(3) {
			case 0: // reserve at the earliest feasible point
				from := int64(rng.Intn(50))
				dur := int64(1 + rng.Intn(8))
				got := tb.FindEarliest(from, dur)
				want := ref.findEarliest(from, dur)
				if got != want {
					t.Fatalf("trial %d op %d: FindEarliest(%d,%d)=%d oracle=%d busy=%v",
						trial, op, from, dur, got, want, tb.busy)
				}
				if err := tb.Reserve(got, dur); err != nil {
					t.Fatalf("reserving found slot failed: %v", err)
				}
				for x := got; x < got+dur; x++ {
					ref[x] = true
				}
				committed = append(committed, res{got, dur})
			case 1: // attempt a random reservation; must agree with oracle
				s := int64(rng.Intn(60))
				d := int64(1 + rng.Intn(8))
				err := tb.Reserve(s, d)
				if ref.free(s, d) != (err == nil) {
					t.Fatalf("trial %d: Reserve(%d,%d) err=%v disagrees with oracle", trial, s, d, err)
				}
				if err == nil {
					for x := s; x < s+d; x++ {
						ref[x] = true
					}
					committed = append(committed, res{s, d})
				}
			case 2: // release a random committed slot
				if len(committed) == 0 {
					continue
				}
				i := rng.Intn(len(committed))
				c := committed[i]
				if err := tb.Release(c.s, c.d); err != nil {
					t.Fatalf("release of committed slot failed: %v", err)
				}
				for x := c.s; x < c.s+c.d; x++ {
					delete(ref, x)
				}
				committed = append(committed[:i], committed[i+1:]...)
			}
		}
	}
}

// TestQuickFindEarliestInvariants uses testing/quick to check the two
// defining properties of FindEarliest: the returned slot is at or after
// `from` and conflict-free.
func TestQuickFindEarliestInvariants(t *testing.T) {
	f := func(starts []uint16, durs []uint8, from uint16, dur uint8) bool {
		var tb Table
		for i, s := range starts {
			d := int64(1)
			if i < len(durs) {
				d = int64(durs[i]%16) + 1
			}
			tb.Reserve(int64(s), d) // ignore conflicts; table stays consistent
		}
		d := int64(dur%16) + 1
		got := tb.FindEarliest(int64(from), d)
		if got < int64(from) {
			return false
		}
		_, clash := tb.Conflict(got, d)
		return !clash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFindEarliestAllInvariants checks the path-merge query: result
// is >= from and free in every table, and no earlier feasible point
// exists at interval boundaries.
func TestQuickFindEarliestAllInvariants(t *testing.T) {
	f := func(a, b []uint16, from uint16, dur uint8) bool {
		var ta, tb Table
		for _, s := range a {
			ta.Reserve(int64(s), int64(s%7)+1)
		}
		for _, s := range b {
			tb.Reserve(int64(s), int64(s%5)+1)
		}
		d := int64(dur%12) + 1
		tables := []*Table{&ta, &tb}
		got := FindEarliestAll(tables, int64(from), d)
		if got < int64(from) {
			return false
		}
		for _, x := range tables {
			if _, clash := x.Conflict(got, d); clash {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustReserve(t *testing.T, tb *Table, start, dur int64) {
	t.Helper()
	if err := tb.Reserve(start, dur); err != nil {
		t.Fatal(err)
	}
}
