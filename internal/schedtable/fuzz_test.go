package schedtable

import "testing"

// FuzzTableOps drives a Table with an operation stream decoded from
// fuzz input and checks the core invariants after every step: the busy
// list stays sorted and non-overlapping, FindEarliest returns
// conflict-free slots at or after the release time, and Release only
// succeeds on exact reservations.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 10, 5, 1, 12, 3, 2, 10, 5})
	f.Add([]byte{0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tb Table
		type res struct{ s, d int64 }
		var committed []res
		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i] % 3
			start := int64(ops[i+1])
			dur := int64(ops[i+2]%16) + 1
			switch op {
			case 0: // reserve at an arbitrary point
				if err := tb.Reserve(start, dur); err == nil {
					committed = append(committed, res{start, dur})
				}
			case 1: // find-earliest then reserve there
				s := tb.FindEarliest(start, dur)
				if s < start {
					t.Fatalf("FindEarliest(%d,%d) = %d < from", start, dur, s)
				}
				if _, clash := tb.Conflict(s, dur); clash {
					t.Fatalf("FindEarliest returned a conflicting slot")
				}
				if err := tb.Reserve(s, dur); err != nil {
					t.Fatalf("reserving found slot: %v", err)
				}
				committed = append(committed, res{s, dur})
			case 2: // release a committed slot (if any)
				if len(committed) == 0 {
					continue
				}
				idx := int(ops[i+1]) % len(committed)
				c := committed[idx]
				if err := tb.Release(c.s, c.d); err != nil {
					t.Fatalf("release committed [%d,%d): %v", c.s, c.s+c.d, err)
				}
				committed = append(committed[:idx], committed[idx+1:]...)
			}
			// Invariants on the busy list.
			busy := tb.busy
			for j := 1; j < len(busy); j++ {
				if busy[j-1].Start > busy[j].Start {
					t.Fatal("busy list unsorted")
				}
				if busy[j-1].End > busy[j].Start {
					t.Fatalf("busy slots overlap: %v %v", busy[j-1], busy[j])
				}
			}
			if len(busy) != len(committed) {
				t.Fatalf("%d busy slots, %d committed", len(busy), len(committed))
			}
		}
	})
}
