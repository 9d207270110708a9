package sim

import (
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/sched"
)

// byteStream reads fuzz input one byte at a time, yielding 0 once the
// input runs out.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// fuzzSchedule builds a schedule on rig's 3x3 mesh from fuzz input: a
// DAG of 2 to 9 tasks whose edges point from lower to higher IDs, with
// volumes of 0 to 2,040 bits (up to 21 flits), committed in a random
// topological order to random PEs by the contention-aware builder.
func fuzzSchedule(t *testing.T, in *byteStream) *sched.Schedule {
	t.Helper()
	g, acg := rig(t)
	n := 2 + in.next()%8
	for i := 0; i < n; i++ {
		dst := addTask(t, g, int64(1+in.next()%16))
		for k := in.next() % 3; k > 0 && i > 0; k-- {
			src := ctg.TaskID(in.next() % i)
			if _, err := g.AddEdge(src, dst, int64(in.next()*(1+in.next()%8))); err != nil {
				t.Fatal(err)
			}
		}
	}
	bld := sched.NewBuilder(g, acg, "fuzz")
	for ready := bld.AppendReady(nil); len(ready) > 0; ready = bld.AppendReady(nil) {
		task := ready[in.next()%len(ready)]
		if _, err := bld.Commit(task, in.next()%g.NumPEs()); err != nil {
			t.Fatal(err)
		}
	}
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzReplay replays random contention-aware schedules at buffer
// depths 1 to 3 and checks the replay's invariants: it terminates
// without error, every data transaction yields exactly one packet that
// is delivered no earlier than its injection plus serialization, every
// flit crosses each link of its route exactly once, the measured energy
// equals ExpectedFlitEnergy, and no packet arrives later than its
// scheduled finish plus pipeline fill plus its own stall cycles.
//
// The last two seeds are minimized counterexamples to the stall bound
// from before StallCycles charged the losers queued behind a
// backpressured arbitration winner (buffer depth 1) and a head flit
// waiting behind another packet's flit in an input buffer (depth 2).
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 0, 12, 1, 0, 7, 2, 13, 1, 40, 20, 2, 2, 9, 1, 30, 1, 5, 4, 8, 2, 6, 3, 1, 0, 2, 1, 3, 5, 7, 2})
	f.Add([]byte{7, 5, 0, 9, 2, 0, 16, 3, 1, 1, 16, 0, 0, 16, 9, 2, 2, 16, 1, 0, 12, 11, 2, 3, 16, 0, 1, 16, 2, 8, 2, 4,
		16, 0, 3, 16, 1, 0, 8, 0, 4, 0, 8, 1, 0, 8, 2, 0, 8, 3, 0, 8, 4, 0, 8, 5, 0, 8, 6, 0, 8, 7, 0, 8})
	f.Add([]byte("700010\xfa20100000000000010000001"))
	f.Add([]byte("7000200000002107000000200000002000000000000000000020800000Y001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		s := fuzzSchedule(t, &in)
		bufferFlits := 1 + in.next()%3
		res, err := Replay(s, Options{BufferFlits: bufferFlits})
		if err != nil {
			t.Fatalf("buffer %d: %v", bufferFlits, err)
		}

		seen := make(map[ctg.EdgeID]bool)
		var flits int64
		for _, p := range res.Packets {
			tr := &s.Transactions[p.Edge]
			if seen[p.Edge] || s.Graph.Edge(p.Edge).Volume <= 0 || tr.SrcPE == tr.DstPE {
				t.Fatalf("edge %d: unexpected or repeated packet", p.Edge)
			}
			seen[p.Edge] = true
			if p.Delivered < p.Injected+p.Flits {
				t.Errorf("edge %d: delivered at %d, injected at %d with %d flits", p.Edge, p.Delivered, p.Injected, p.Flits)
			}
			if -p.Slack() > p.StallCycles {
				t.Errorf("edge %d: %d cycles late with only %d stall cycles (buffer %d)", p.Edge, -p.Slack(), p.StallCycles, bufferFlits)
			}
			flits += p.Flits * int64(p.Hops-1)
		}
		for i := range s.Transactions {
			tr := &s.Transactions[i]
			if s.Graph.Edge(tr.Edge).Volume > 0 && tr.SrcPE != tr.DstPE && !seen[tr.Edge] {
				t.Errorf("edge %d: data transaction without a packet", tr.Edge)
			}
		}

		var linkFlits int64
		for _, n := range res.LinkFlits {
			linkFlits += n
		}
		if linkFlits != flits {
			t.Errorf("links carried %d flits, packets account for %d", linkFlits, flits)
		}
		if want := ExpectedFlitEnergy(s); math.Abs(res.MeasuredCommEnergy-want) > 1e-9*want {
			t.Errorf("measured energy %v, want %v", res.MeasuredCommEnergy, want)
		}
	})
}
