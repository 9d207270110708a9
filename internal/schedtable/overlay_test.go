package schedtable

import (
	"math/rand"
	"testing"
)

// findEarliestAllNaive is the pre-cursor reference implementation: every
// round re-runs a fresh binary search per table. Kept as the oracle for
// the resume-cursor rewrite and as the baseline of the micro-benchmark.
func findEarliestAllNaive(tables []*Table, from, dur int64) int64 {
	if dur <= 0 || len(tables) == 0 {
		return from
	}
	s := from
	for {
		moved := false
		for _, t := range tables {
			if iv, clash := t.Conflict(s, dur); clash {
				s = iv.End
				moved = true
			}
		}
		if !moved {
			return s
		}
	}
}

// randomTables builds nt tables with random non-overlapping busy slots.
func randomTables(rng *rand.Rand, nt, slots int) []*Table {
	tables := make([]*Table, nt)
	for i := range tables {
		tables[i] = &Table{}
		at := int64(rng.Intn(5))
		for j := 0; j < slots; j++ {
			dur := int64(1 + rng.Intn(9))
			if err := tables[i].Reserve(at, dur); err != nil {
				panic(err)
			}
			at += dur + int64(rng.Intn(12))
		}
	}
	return tables
}

// TestFindEarliestAllMatchesNaive cross-checks the resume-cursor merge
// against the re-walking reference on random dense tables.
func TestFindEarliestAllMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		tables := randomTables(rng, 1+rng.Intn(5), 1+rng.Intn(40))
		for q := 0; q < 20; q++ {
			from := int64(rng.Intn(300))
			dur := int64(1 + rng.Intn(15))
			want := findEarliestAllNaive(tables, from, dur)
			if got := FindEarliestAll(tables, from, dur); got != want {
				t.Fatalf("trial %d: FindEarliestAll(from=%d, dur=%d) = %d, want %d",
					trial, from, dur, got, want)
			}
		}
	}
}

// TestFindEarliestAllManyTables exercises the heap-fallback path for
// paths longer than the stack cursor buffer.
func TestFindEarliestAllManyTables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tables := randomTables(rng, mergeStackTables+5, 20)
	for q := 0; q < 50; q++ {
		from := int64(rng.Intn(200))
		dur := int64(1 + rng.Intn(10))
		want := findEarliestAllNaive(tables, from, dur)
		if got := FindEarliestAll(tables, from, dur); got != want {
			t.Fatalf("FindEarliestAll(from=%d, dur=%d) = %d, want %d", from, dur, got, want)
		}
	}
}

// pendingLen counts the tentative reservations an overlay records.
func pendingLen(o *Overlay) int {
	n := 0
	for _, id := range o.touched {
		n += len(o.pending[id])
	}
	return n
}

// TestOverlayBasics covers Reset/Add bookkeeping.
func TestOverlayBasics(t *testing.T) {
	o := NewOverlay(4)
	if pendingLen(o) != 0 {
		t.Fatalf("fresh overlay Len = %d, want 0", pendingLen(o))
	}
	o.Add(1, 10, 5)
	o.Add(1, 20, 5)
	o.Add(3, 0, 2)
	o.Add(2, 0, 0) // zero duration: no-op
	if pendingLen(o) != 3 {
		t.Fatalf("Len = %d, want 3", pendingLen(o))
	}
	o.Reset()
	if pendingLen(o) != 0 {
		t.Fatalf("Len after Reset = %d, want 0", pendingLen(o))
	}
	// Reuse after reset must behave like a fresh overlay.
	o.Add(1, 0, 4)
	if pendingLen(o) != 1 {
		t.Fatalf("Len after reuse = %d, want 1", pendingLen(o))
	}
}

// TestFindEarliestAllOverlayEquivalence is the load-bearing property of
// the read-only probe path: querying through an overlay must give
// exactly the answer that reserving the pending slots into the tables
// and querying would give.
func TestFindEarliestAllOverlayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 300; trial++ {
		nt := 1 + rng.Intn(4)
		tables := randomTables(rng, nt, 1+rng.Intn(25))
		ids := make([]int, nt)
		for i := range ids {
			ids[i] = i
		}
		o := NewOverlay(nt)

		// Build a random pending set, mirrored into reserved copies.
		reserved := make([]*Table, nt)
		for i := range reserved {
			cp := &Table{}
			for _, iv := range tables[i].busy {
				if err := cp.Reserve(iv.Start, iv.End-iv.Start); err != nil {
					t.Fatal(err)
				}
			}
			reserved[i] = cp
		}
		for p := 0; p < 3; p++ {
			dur := int64(1 + rng.Intn(8))
			from := int64(rng.Intn(150))
			start := FindEarliestAllOverlay(tables, ids, o, from, dur)
			for i := range tables {
				o.Add(ids[i], start, dur)
				if err := reserved[i].Reserve(start, dur); err != nil {
					t.Fatalf("trial %d: overlay found occupied slot [%d,%d) on table %d: %v",
						trial, start, start+dur, i, err)
				}
			}
		}

		for q := 0; q < 20; q++ {
			from := int64(rng.Intn(250))
			dur := int64(1 + rng.Intn(12))
			want := FindEarliestAll(reserved, from, dur)
			if got := FindEarliestAllOverlay(tables, ids, o, from, dur); got != want {
				t.Fatalf("trial %d: overlay query (from=%d, dur=%d) = %d, reserved tables say %d",
					trial, from, dur, got, want)
			}
		}
	}
}

// TestFindEarliestAllOverlayNil checks the nil-overlay degradation.
func TestFindEarliestAllOverlayNil(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tables := randomTables(rng, 3, 15)
	ids := []int{0, 1, 2}
	for q := 0; q < 30; q++ {
		from := int64(rng.Intn(200))
		dur := int64(1 + rng.Intn(10))
		if got, want := FindEarliestAllOverlay(tables, ids, nil, from, dur), FindEarliestAll(tables, from, dur); got != want {
			t.Fatalf("nil overlay (from=%d, dur=%d): got %d, want %d", from, dur, got, want)
		}
	}
}
