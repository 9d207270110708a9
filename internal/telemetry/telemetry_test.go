package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Error("get-or-create returned a different handle")
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	nilC.Add(5)
	if nilC.Value() != 0 {
		t.Error("nil counter Value != 0")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(2.0)
	if got := g.Value(); got != 3.5 {
		t.Errorf("Value = %g, want 3.5", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Error("nil gauge Value != 0")
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// equal to a bound lands in that bound's bucket, one above it lands in
// the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := NewHistogram([]int64{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	// (bucket index) expectations per value:
	//   v <= 10 -> 0, 10 < v <= 20 -> 1, 20 < v <= 40 -> 2, v > 40 -> 3.
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}, {40, 2}, {41, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.want]++
	}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
}

func TestHistogramOverflowOnly(t *testing.T) {
	h, err := NewHistogram([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(100)
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if got := h.counts[0].Load(); got != 0 {
		t.Errorf("first bucket = %d, want 0", got)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]int64{5, 5}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	// The registry degrades invalid bounds to a nil no-op handle.
	r := NewRegistry()
	h := r.Histogram("bad", []int64{3, 2, 1})
	if h != nil {
		t.Error("registry returned a handle for invalid bounds")
	}
	h.Observe(1) // nil handle must not panic
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram not zero")
	}
}

func TestCounterGrid(t *testing.T) {
	r := NewRegistry()
	g := r.Grid("grid", 2, 3)
	g.Add(1, 2, 7)
	g.Add(0, 0, 1)
	if got := g.cells[1*g.cols+2].Load(); got != 7 {
		t.Errorf("cell (1,2) = %d, want 7", got)
	}
	// Out-of-range updates are ignored, not panics.
	g.Add(-1, 0, 1)
	g.Add(2, 0, 1)
	g.Add(0, 3, 1)
	var total int64
	for i := range g.cells {
		total += g.cells[i].Load()
	}
	if total != 8 {
		t.Errorf("cells sum to %d after out-of-range adds, want 8", total)
	}
	if r.Grid("grid", 2, 3) != g {
		t.Error("get-or-create returned a different grid")
	}
	// Another shape is another grid: no count lands in, or is dropped
	// from, the first registration's cells.
	other := r.Grid("grid", 9, 9)
	if other == nil || other == g {
		t.Fatal("a second shape shared the first shape's grid")
	}
	other.Add(8, 8, 5)
	snap := r.Snapshot()
	if len(snap.Grids) != 2 || snap.Grids[0].Rows != 2 || snap.Grids[0].Total() != 8 ||
		snap.Grids[1].Rows != 9 || snap.Grids[1].Total() != 5 {
		t.Errorf("two shapes snapshot as %+v, want 2x3 with 8 then 9x9 with 5", snap.Grids)
	}
	if r.Grid("degenerate", 0, 4) != nil {
		t.Error("non-positive shape produced a handle")
	}
	var nilG *CounterGrid
	nilG.Add(0, 0, 1)
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil ||
		r.Histogram("x", []int64{1}) != nil || r.Grid("x", 1, 1) != nil {
		t.Error("nil registry handed out non-nil handles")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Grids) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestEmptySnapshotValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSnapshot(&buf); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
}

// TestSnapshotRoundTrip writes a populated snapshot and validates it,
// checking the values survive the JSON round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_counter").Add(3)
	r.Counter("a_counter").Add(1)
	r.Gauge("g").Set(2.25)
	h := r.Histogram("h", []int64{1, 2})
	h.Observe(1)
	h.Observe(5)
	r.Grid("grid", 2, 2).Add(1, 1, 9)
	r.Grid("grid", 3, 1).Add(2, 0, 4)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ValidateSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Counters are sorted by name.
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_counter" || s.Counters[1].Value != 3 {
		t.Errorf("counters: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 2.25 {
		t.Errorf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 2 || s.Histograms[0].Sum != 6 {
		t.Errorf("histograms: %+v", s.Histograms)
	}
	// One name's shapes are sorted by rows, then columns.
	if len(s.Grids) != 2 || s.Grids[0].Total() != 9 || s.Grids[1].Rows != 3 || s.Grids[1].Total() != 4 {
		t.Errorf("grids: %+v", s.Grids)
	}
}

func TestValidateSnapshotRejects(t *testing.T) {
	bad := []struct {
		name, doc string
	}{
		{"garbage", `{nope`},
		{"unknown field", `{"bogus": 1}`},
		{"negative counter", `{"counters":[{"name":"c","value":-1}]}`},
		{"duplicate name", `{"counters":[{"name":"c","value":1},{"name":"c","value":2}]}`},
		{"empty name", `{"gauges":[{"name":"","value":0}]}`},
		{"count mismatch", `{"histograms":[{"name":"h","count":5,"sum":0,"bounds":[1],"counts":[1,1]}]}`},
		{"bad bucket arity", `{"histograms":[{"name":"h","count":1,"sum":0,"bounds":[1,2],"counts":[1]}]}`},
		{"descending bounds", `{"histograms":[{"name":"h","count":0,"sum":0,"bounds":[2,1],"counts":[0,0,0]}]}`},
		{"cell out of range", `{"grids":[{"name":"g","rows":1,"cols":1,"cells":[{"row":1,"col":0,"value":1}]}]}`},
		{"bad grid shape", `{"grids":[{"name":"g","rows":0,"cols":1,"cells":[]}]}`},
		{"duplicate grid shape", `{"grids":[{"name":"g","rows":1,"cols":2,"cells":[]},{"name":"g","rows":1,"cols":2,"cells":[]}]}`},
	}
	for _, c := range bad {
		if _, err := ValidateSnapshot(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestConcurrentUpdates hammers one counter, histogram and grid from
// many goroutines; run under -race this is the registry's concurrency
// guarantee.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve through the registry concurrently as well: the
			// get-or-create path must be safe, not just the updates.
			c := r.Counter("shared")
			h := r.Histogram("lat", []int64{10, 100})
			g := r.Grid("pairs", workers, workers)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 200))
				g.Add(w, i%workers, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	snap := r.Snapshot()
	for _, gs := range snap.Grids {
		if gs.Total() != workers*per {
			t.Errorf("grid total = %d, want %d", gs.Total(), workers*per)
		}
	}
}

func TestWriteTextMentionsEveryMetric(t *testing.T) {
	r := NewRegistry()
	r.Counter("my_counter").Inc()
	r.Gauge("my_gauge").Set(1)
	r.Histogram("my_hist", []int64{1}).Observe(1)
	r.Grid("my_grid", 1, 1).Add(0, 0, 1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"my_counter", "my_gauge", "my_hist", "my_grid"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("report omits %s:\n%s", name, buf.String())
		}
	}
}

// TestSnapshotOrderingDeterministic pins the documented Snapshot
// ordering guarantee: samples sorted ascending by name within each
// kind regardless of registration or update order, and two snapshots
// of the same state encoding to identical bytes.
func TestSnapshotOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of order, interleaving kinds.
	r.Counter("zz_last").Add(1)
	r.Gauge("m_gauge").Set(2)
	r.Histogram("z_hist", []int64{1, 2}).Observe(1)
	r.Grid("b_grid", 2, 2).Add(1, 1, 5)
	r.Counter("aa_first").Add(2)
	r.Gauge("a_gauge").Set(1)
	r.Histogram("a_hist", []int64{1}).Observe(9)
	r.Grid("a_grid", 2, 2).Add(0, 1, 3)
	r.Grid("a_grid", 2, 2).Add(1, 0, 4)

	s := r.Snapshot()
	wantCounters := []string{"aa_first", "zz_last"}
	for i, c := range s.Counters {
		if c.Name != wantCounters[i] {
			t.Fatalf("counter %d = %q, want %q", i, c.Name, wantCounters[i])
		}
	}
	wantGauges := []string{"a_gauge", "m_gauge"}
	for i, g := range s.Gauges {
		if g.Name != wantGauges[i] {
			t.Fatalf("gauge %d = %q, want %q", i, g.Name, wantGauges[i])
		}
	}
	wantHists := []string{"a_hist", "z_hist"}
	for i, h := range s.Histograms {
		if h.Name != wantHists[i] {
			t.Fatalf("histogram %d = %q, want %q", i, h.Name, wantHists[i])
		}
	}
	wantGrids := []string{"a_grid", "b_grid"}
	for i, g := range s.Grids {
		if g.Name != wantGrids[i] {
			t.Fatalf("grid %d = %q, want %q", i, g.Name, wantGrids[i])
		}
	}
	// Grid cells in row-major order.
	cells := s.Grids[0].Cells
	if len(cells) != 2 || cells[0].Row != 0 || cells[0].Col != 1 || cells[1].Row != 1 || cells[1].Col != 0 {
		t.Fatalf("grid cells not row-major: %+v", cells)
	}

	// Byte determinism: two snapshots of unchanged state are identical.
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two snapshots of unchanged registry state differ byte-wise")
	}
}
