// Package telemetry is the unified observability layer of this
// repository: a zero-dependency, allocation-conscious metrics registry
// (counters, gauges, histograms with fixed bucket layouts, dense counter
// grids for per-PE-pair and per-link data) plus a structured event
// tracer with pluggable sinks (JSONL and the Chrome trace_event format
// loadable in chrome://tracing and Perfetto).
//
// Two properties shape the design:
//
//   - Disabled telemetry must cost (almost) nothing on hot paths. Every
//     metric handle and the tracer are nil-safe: calling Add/Observe/
//     Emit on a nil receiver is a no-op, so instrumented code stores
//     pre-resolved handles and pays one nil check per update — no map
//     lookups, no interface boxing, no allocation. The scheduler's
//     zero-alloc probe guard (internal/sched TestProbeZeroAllocs*)
//     covers both the nil and the enabled path.
//
//   - Errors must surface, not vanish. Sinks record the first write
//     error and return it from Err/Close; emitting after a failure is a
//     cheap no-op. Callers report that error (the simulator exposes it
//     as Result.TraceErr; the CLI diag session returns it from Close).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric, safe for
// concurrent use. A nil *Counter is a valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (no-op on a nil receiver).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding a last-written value, safe for
// concurrent use. A nil *Gauge is a valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add atomically adds d to the gauge (no-op on a nil receiver).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// Histogram is a fixed-layout histogram over int64 observations: bucket
// i counts values v with v <= Bounds[i] (and > Bounds[i-1]); one extra
// overflow bucket counts values above the last bound. The layout is
// fixed at registration so Observe is a binary search plus two atomic
// adds — no allocation. A nil *Histogram is a valid no-op handle.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	n      atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a standalone histogram with the given ascending
// upper bounds (useful outside a Registry, e.g. in tests).
func NewHistogram(bounds []int64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("telemetry: histogram bounds not ascending at %d: %v", i, bounds)
		}
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bound")
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 for a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// CounterGrid is a dense rows x cols matrix of counters — the shape of
// per-PE-pair and per-link metrics — updated with one atomic add and no
// per-update lookup or allocation. A nil *CounterGrid is a valid no-op
// handle; out-of-range indices are ignored rather than panicking, so a
// stray index cannot crash an instrumented run.
type CounterGrid struct {
	rows, cols int
	cells      []atomic.Int64
}

// Add increments cell (r, c) by d.
func (g *CounterGrid) Add(r, c int, d int64) {
	if g == nil || r < 0 || r >= g.rows || c < 0 || c >= g.cols {
		return
	}
	g.cells[r*g.cols+c].Add(d)
}

// Registry is a concurrency-safe collection of named metrics. Metric
// accessors get-or-create: repeated registration under one name returns
// the same handle (with the first registration's layout), so library
// code can resolve handles without coordinating ownership. All methods
// are valid on a nil *Registry and return nil handles, which makes "no
// telemetry configured" the zero-cost default everywhere.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	grids    map[string]*CounterGrid
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		grids:    make(map[string]*CounterGrid),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use. Later registrations under
// the same name ignore their bounds argument and return the existing
// layout. Invalid bounds on first registration return a nil (no-op)
// handle rather than an error: a misconfigured metric must not take the
// scheduler down.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil
	}
	r.hists[name] = h
	return h
}

// Grid returns the named rows x cols counter grid, creating it on first
// use. Later registrations return the existing grid regardless of the
// requested shape; non-positive dimensions yield a nil (no-op) handle.
func (r *Registry) Grid(name string, rows, cols int) *CounterGrid {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.grids[name]; ok {
		return g
	}
	if rows <= 0 || cols <= 0 {
		return nil
	}
	g := &CounterGrid{rows: rows, cols: cols, cells: make([]atomic.Int64, rows*cols)}
	r.grids[name] = g
	return g
}

// ---------------------------------------------------------------------
// Snapshots.

// CounterSample is one counter in a snapshot.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSample is one gauge in a snapshot.
type GaugeSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSample is one histogram in a snapshot: Counts[i] pairs with
// Bounds[i] (observations <= Bounds[i]); the final Counts entry is the
// overflow bucket (observations above the last bound).
type HistogramSample struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
}

// Sample captures the histogram's current state under the given name
// (what Registry.Snapshot does for registered histograms, usable on a
// standalone histogram too). A nil receiver yields an empty sample.
func (h *Histogram) Sample(name string) HistogramSample {
	hs := HistogramSample{Name: name}
	if h == nil {
		return hs
	}
	hs.Count = h.Count()
	hs.Sum = h.Sum()
	hs.Bounds = append([]int64(nil), h.bounds...)
	hs.Counts = make([]int64, len(h.counts))
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// GridCell is one non-zero cell of a grid snapshot.
type GridCell struct {
	Row   int   `json:"row"`
	Col   int   `json:"col"`
	Value int64 `json:"value"`
}

// GridSample is one counter grid in a snapshot; only non-zero cells are
// materialized (NoC grids are sparse: most PE pairs never talk).
type GridSample struct {
	Name  string     `json:"name"`
	Rows  int        `json:"rows"`
	Cols  int        `json:"cols"`
	Cells []GridCell `json:"cells"`
}

// Total sums the grid's cells.
func (g *GridSample) Total() int64 {
	var t int64
	for _, c := range g.Cells {
		t += c.Value
	}
	return t
}

// Snapshot is a point-in-time copy of a registry's metrics — the unit
// the run reports, the JSON export, and the Prometheus exposition
// (internal/obs) are built from.
//
// Ordering is a guarantee, not an accident: within each kind the
// samples are sorted ascending by name, and a histogram's buckets and a
// grid's non-zero cells appear in their natural (bound, row-major)
// order. Two snapshots of the same registry state therefore encode to
// identical bytes, which makes /metrics scrapes and JSONL time-series
// diffable. TestSnapshotOrderingDeterministic pins this down.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters"`
	Gauges     []GaugeSample     `json:"gauges"`
	Histograms []HistogramSample `json:"histograms"`
	Grids      []GridSample      `json:"grids"`
}

// Snapshot captures the registry's current values. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.Sample(name))
	}
	for name, g := range r.grids {
		gs := GridSample{Name: name, Rows: g.rows, Cols: g.cols}
		for i := range g.cells {
			if v := g.cells[i].Load(); v != 0 {
				gs.Cells = append(gs.Cells, GridCell{Row: i / g.cols, Col: i % g.cols, Value: v})
			}
		}
		s.Grids = append(s.Grids, gs)
	}
	sort.Slice(s.Counters, func(a, b int) bool { return s.Counters[a].Name < s.Counters[b].Name })
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	sort.Slice(s.Grids, func(a, b int) bool { return s.Grids[a].Name < s.Grids[b].Name })
	return s
}

// WriteJSON writes the snapshot as one indented JSON document (the
// -metrics-out format; ValidateSnapshot checks it).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the human-readable run report appended to CLI
// output: counters and gauges one per line, histograms with their
// bucket layout, grids as their top cells by value.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "  %-36s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "  %-36s %.3f\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "  %-36s count=%d sum=%d mean=%.2f\n", h.Name, h.Count, h.Sum, mean); err != nil {
			return err
		}
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			label := "+inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "    le %-8s %d\n", label, n); err != nil {
				return err
			}
		}
	}
	for _, g := range s.Grids {
		if _, err := fmt.Fprintf(w, "  %-36s %dx%d, total %d\n", g.Name, g.Rows, g.Cols, g.Total()); err != nil {
			return err
		}
		for _, cell := range topCells(g.Cells, 5) {
			if _, err := fmt.Fprintf(w, "    [%d,%d] %d\n", cell.Row, cell.Col, cell.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// topCells returns the n largest cells by value (ties to the lower
// row/col), without mutating the input.
func topCells(cells []GridCell, n int) []GridCell {
	out := append([]GridCell(nil), cells...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value > out[b].Value
		}
		if out[a].Row != out[b].Row {
			return out[a].Row < out[b].Row
		}
		return out[a].Col < out[b].Col
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
