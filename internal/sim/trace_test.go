package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// tracedReplay builds a one-packet schedule and replays it with tracing.
func tracedReplay(t *testing.T) (*sched.Schedule, *Result, []Event) {
	t.Helper()
	g, acg := rig(t)
	a := addTask(t, g, 10)
	b := addTask(t, g, 10)
	g.AddEdge(a, b, 300) // 3 flits

	bld := sched.NewBuilder(g, acg, "test")
	bld.Commit(a, 0)
	bld.Commit(b, 2) // 2 links
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Replay(s, Options{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s, res, events
}

func TestTraceEvents(t *testing.T) {
	_, res, events := tracedReplay(t)
	var injects, hops, delivers int
	for _, e := range events {
		switch e.Kind {
		case "inject":
			injects++
		case "hop":
			hops++
		case "deliver":
			delivers++
		default:
			t.Errorf("unknown event kind %q", e.Kind)
		}
	}
	// 3 flits injected; each flit traverses 2 links = 6 traversals, of
	// which the tail's final traversal is "deliver".
	if injects != 3 {
		t.Errorf("injects = %d, want 3", injects)
	}
	if hops+delivers != 6 {
		t.Errorf("hops+delivers = %d, want 6", hops+delivers)
	}
	if delivers != 1 {
		t.Errorf("delivers = %d, want 1 (tail only)", delivers)
	}
	// Events are cycle-ordered per flit and consistent with the packet
	// result.
	p := res.Packets[0]
	last := events[len(events)-1]
	if last.Kind != "deliver" || last.Cycle+1 != p.Delivered {
		t.Errorf("last event %+v vs delivered %d", last, p.Delivered)
	}
}

func TestLinkFlitsAccounting(t *testing.T) {
	_, res, _ := tracedReplay(t)
	total := int64(0)
	busy := 0
	for _, f := range res.LinkFlits {
		total += f
		if f > 0 {
			busy++
		}
	}
	// 3 flits x 2 links.
	if total != 6 {
		t.Errorf("total flit traversals = %d, want 6", total)
	}
	if busy != 2 {
		t.Errorf("busy links = %d, want 2", busy)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json")); err == nil {
		t.Error("garbage trace accepted")
	}
}

// TestTraceGoldenBytes pins the exact bytes of the JSONL trace. The
// emission path moved onto telemetry.JSONLSink; this golden (captured
// from the pre-migration encoder) proves the line schema stayed
// byte-identical — including the omitempty quirk that link 0 is
// omitted from events on the first route link.
func TestTraceGoldenBytes(t *testing.T) {
	g, acg := rig(t)
	a := addTask(t, g, 10)
	b := addTask(t, g, 10)
	g.AddEdge(a, b, 300) // 3 flits over 2 links

	bld := sched.NewBuilder(g, acg, "test")
	bld.Commit(a, 0)
	bld.Commit(b, 2)
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Replay(s, Options{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceErr != nil {
		t.Fatalf("TraceErr = %v on a healthy writer", res.TraceErr)
	}
	const want = `{"cycle":10,"kind":"inject","edge":0}
{"cycle":10,"kind":"hop","edge":0}
{"cycle":11,"kind":"inject","edge":0}
{"cycle":11,"kind":"hop","edge":0}
{"cycle":11,"kind":"hop","edge":0,"link":4}
{"cycle":12,"kind":"inject","edge":0,"tail":true}
{"cycle":12,"kind":"hop","edge":0,"tail":true}
{"cycle":12,"kind":"hop","edge":0,"link":4}
{"cycle":13,"kind":"deliver","edge":0,"link":4,"tail":true}
`
	if got := buf.String(); got != want {
		t.Errorf("trace bytes changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// failAfter fails every write after the first n bytes.
type failAfter struct {
	n       int
	written int
	err     error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

// TestTraceWriteErrorSurfaced exercises the satellite fix: a failing
// trace writer used to be swallowed silently; now the first write error
// comes back as Result.TraceErr while the replay itself completes.
func TestTraceWriteErrorSurfaced(t *testing.T) {
	g, acg := rig(t)
	a := addTask(t, g, 10)
	b := addTask(t, g, 10)
	g.AddEdge(a, b, 300)

	bld := sched.NewBuilder(g, acg, "test")
	bld.Commit(a, 0)
	bld.Commit(b, 2)
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("disk full")
	res, err := Replay(s, Options{Trace: &failAfter{n: 40, err: wantErr}})
	if err != nil {
		t.Fatalf("replay itself must survive a trace write error: %v", err)
	}
	if !errors.Is(res.TraceErr, wantErr) {
		t.Errorf("TraceErr = %v, want %v", res.TraceErr, wantErr)
	}
	// The replay results are unaffected by the truncated trace.
	if len(res.Packets) != 1 || res.Packets[0].Delivered < 0 {
		t.Errorf("packet results corrupted by trace failure: %+v", res.Packets)
	}
}

// TestReplayPublishesMetrics checks the simulator's registry
// publication: packet counters, the stall histogram and the per-link
// flit grid agree with the Result.
func TestReplayPublishesMetrics(t *testing.T) {
	g, acg := rig(t)
	a := addTask(t, g, 10)
	b := addTask(t, g, 10)
	g.AddEdge(a, b, 300)

	bld := sched.NewBuilder(g, acg, "test")
	bld.Commit(a, 0)
	bld.Commit(b, 2)
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(nil)
	res, err := Replay(s, Options{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	r := col.Registry
	if got := r.Counter(MetricPackets).Value(); got != int64(len(res.Packets)) {
		t.Errorf("%s = %d, want %d", MetricPackets, got, len(res.Packets))
	}
	if got := r.Histogram(MetricStallCycles, nil).Count(); got != int64(len(res.Packets)) {
		t.Errorf("%s count = %d, want %d", MetricStallCycles, got, len(res.Packets))
	}
	snap := r.Snapshot()
	var flitTotal int64
	for _, gr := range snap.Grids {
		if gr.Name == MetricLinkFlits {
			flitTotal = gr.Total()
		}
	}
	var wantFlits int64
	for _, f := range res.LinkFlits {
		wantFlits += f
	}
	if flitTotal != wantFlits {
		t.Errorf("%s total = %d, want %d", MetricLinkFlits, flitTotal, wantFlits)
	}
}
