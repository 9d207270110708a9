package schedtable

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestReserveAllRollbackPanicImpossible: ReserveAll's internal rollback
// releases exactly what it just inserted, so it must never panic even
// under adversarial pre-existing reservations.
func TestReserveAllRollbackPanicImpossible(t *testing.T) {
	var a, b, c Table
	mustReserve(t, &c, 3, 4) // forces failure at the third table
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("ReserveAll panicked: %v", r)
		}
	}()
	if err := ReserveAll([]*Table{&a, &b, &c}, 0, 8); err == nil {
		t.Fatal("expected conflict")
	}
	if len(a.busy) != 0 || len(b.busy) != 0 || len(c.busy) != 1 {
		t.Error("rollback left residue")
	}
}

// TestReserveAllAliasedTables: the same table appearing twice in the
// slice makes the second Reserve fail; the rollback of the first
// insertion must succeed and leave the table empty.
func TestReserveAllAliasedTables(t *testing.T) {
	var tb, other Table
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("ReserveAll panicked on aliased tables: %v", r)
		}
	}()
	if err := ReserveAll([]*Table{&tb, &other, &tb}, 0, 5); err == nil {
		t.Fatal("aliased reservation succeeded")
	}
	if len(tb.busy) != 0 || len(other.busy) != 0 {
		t.Error("rollback left residue in aliased tables")
	}
}

// TestRollbackPanicsUnreachableUnderWellFormedOps drives a randomized
// sequence of single-table and atomic multi-table reservations (with
// aliasing) and asserts that ReserveAll's rollback never panics, that a
// failed ReserveAll leaves every table exactly as it found it, and that
// a successful one adds the slot to every table it names.
func TestRollbackPanicsUnreachableUnderWellFormedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 200; trial++ {
		tables := make([]*Table, 1+rng.Intn(4))
		for i := range tables {
			tables[i] = new(Table)
		}
		snapshot := func() [][]Interval {
			out := make([][]Interval, len(tables))
			for i, tb := range tables {
				out[i] = append([]Interval(nil), tb.busy...)
			}
			return out
		}
		for op := 0; op < 50; op++ {
			start, dur := int64(rng.Intn(60)), int64(rng.Intn(10))
			if rng.Intn(2) == 0 { // single-table reserve (may legitimately conflict)
				tables[rng.Intn(len(tables))].Reserve(start, dur)
				continue
			}
			pick := make([]*Table, 1+rng.Intn(len(tables)+1)) // duplicates allowed
			for i := range pick {
				pick[i] = tables[rng.Intn(len(tables))]
			}
			before := snapshot()
			if err := ReserveAll(pick, start, dur); err != nil {
				if got := snapshot(); !reflect.DeepEqual(got, before) {
					t.Fatalf("trial %d op %d: failed ReserveAll left %v, want %v", trial, op, got, before)
				}
				continue
			}
			for _, tb := range pick {
				if _, busy := tb.Conflict(start, dur); dur > 0 && !busy {
					t.Fatalf("trial %d op %d: ReserveAll succeeded without reserving [%d,%d)",
						trial, op, start, start+dur)
				}
			}
		}
	}
}
