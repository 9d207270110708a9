package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// Event is one structured tracer record. Ts and Dur are in the
// tracer's timebase: microseconds since the tracer epoch for wall-clock
// spans, schedule time units for schedule renderings (Chrome viewers
// display both as "µs" — only the unit label differs).
type Event struct {
	// Name labels the slice or instant ("step2:level", "t17", "e5").
	Name string `json:"name"`
	// Track is the logical row the event renders on ("PE 3 (DSP)",
	// "link 2->5", "phases"). The Chrome sink maps each distinct track
	// to one named thread.
	Track string `json:"track"`
	// Kind is the Chrome phase: 'X' complete slice, 'I' instant.
	Kind byte `json:"kind"`
	// Ts is the event start; Dur the slice length ('X' only).
	Ts  int64 `json:"ts"`
	Dur int64 `json:"dur,omitempty"`
}

// Sink consumes tracer events. Implementations follow the
// surfaced-error contract: the first write error is recorded, later
// Emits become no-ops, and Err/Close return that first error — nothing
// is silently dropped without a way to find out.
type Sink interface {
	Emit(e *Event)
	// Err returns the first write error, or nil.
	Err() error
	// Close flushes and returns the first error (write or close).
	Close() error
}

// Tracer emits spans and instants into a sink. A nil *Tracer is the
// no-op default: every method returns immediately after one nil check,
// so un-traced hot paths cost nothing and allocate nothing (guarded by
// the zero-alloc tests).
type Tracer struct {
	sink  Sink
	epoch time.Time
}

// NewTracer wraps a sink; a nil sink yields a nil (no-op) tracer.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Enabled reports whether events reach a sink.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit forwards one pre-built event (no-op on a nil tracer).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.sink.Emit(&e)
}

// now returns microseconds since the tracer epoch.
func (t *Tracer) now() int64 { return time.Since(t.epoch).Microseconds() }

// noopEnd is the shared closure Span returns on a nil tracer, so
// disabled spans do not allocate.
var noopEnd = func() {}

// Span starts a wall-clock slice on a track and returns the function
// that ends it; call it exactly once (defer is the usual shape). On a
// nil tracer it returns a shared no-op.
func (t *Tracer) Span(name, track string) func() {
	if t == nil {
		return noopEnd
	}
	start := t.now()
	return func() {
		t.sink.Emit(&Event{Name: name, Track: track, Kind: 'X', Ts: start, Dur: t.now() - start})
	}
}

// Collector bundles the two halves of the telemetry layer — a metrics
// registry and a tracer — into the single optional handle the
// schedulers and the simulator accept. A nil
// *Collector disables everything.
type Collector struct {
	Registry *Registry
	Tracer   *Tracer
}

// NewCollector returns a collector with a fresh registry and a tracer
// over the given sink (nil sink: metrics only).
func NewCollector(sink Sink) *Collector {
	return &Collector{Registry: NewRegistry(), Tracer: NewTracer(sink)}
}

// R returns the registry, nil when the collector is nil.
func (c *Collector) R() *Registry {
	if c == nil {
		return nil
	}
	return c.Registry
}

// T returns the tracer, nil when the collector is nil.
func (c *Collector) T() *Tracer {
	if c == nil {
		return nil
	}
	return c.Tracer
}

// JSONLSink writes events as JSON lines. EmitValue accepts arbitrary
// values, which lets callers with a pre-existing line schema (the
// wormhole simulator's flit trace) reuse the sink byte-compatibly. A
// nil *JSONLSink is a valid no-op.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps a writer; a nil writer yields a nil (no-op) sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	if w == nil {
		return nil
	}
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes one tracer event as a JSON line.
func (s *JSONLSink) Emit(e *Event) { s.EmitValue(e) }

// EmitValue writes an arbitrary value as one JSON line, recording the
// first encode error and dropping everything after it (surfaced via
// Err/Close per the sink contract).
func (s *JSONLSink) EmitValue(v any) {
	if s == nil || s.err != nil {
		return
	}
	s.err = s.enc.Encode(v)
}

// Err returns the first write error, nil for a healthy or nil sink.
func (s *JSONLSink) Err() error {
	if s == nil {
		return nil
	}
	return s.err
}

// Close surfaces the first write error; the underlying writer is the
// caller's to close.
func (s *JSONLSink) Close() error { return s.Err() }
