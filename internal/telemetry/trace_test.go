package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// errWriter fails every write after the first n bytes succeeded.
type errWriter struct {
	n       int
	written int
	err     error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

func TestJSONLSinkEmitsLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(&Event{Name: "a", Track: "t", Kind: 'X', Ts: 1, Dur: 2})
	s.EmitValue(map[string]int{"x": 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("line is not valid JSON: %q", l)
		}
	}
}

func TestJSONLSinkSurfacesFirstError(t *testing.T) {
	wantErr := errors.New("pipe broke")
	s := NewJSONLSink(&errWriter{n: 0, err: wantErr})
	s.Emit(&Event{Name: "a"})
	s.Emit(&Event{Name: "b"}) // dropped, must not overwrite the error
	if !errors.Is(s.Err(), wantErr) {
		t.Errorf("Err = %v, want %v", s.Err(), wantErr)
	}
	if !errors.Is(s.Close(), wantErr) {
		t.Errorf("Close = %v, want %v", s.Close(), wantErr)
	}
}

func TestJSONLSinkNil(t *testing.T) {
	s := NewJSONLSink(nil)
	if s != nil {
		t.Fatal("nil writer should yield a nil sink")
	}
	s.Emit(&Event{}) // no panic
	s.EmitValue(1)
	if s.Err() != nil || s.Close() != nil {
		t.Error("nil sink reported an error")
	}
}

func TestChromeSinkValidTrace(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.DeclareTrack("PE 0 (RISC)")
	s.DeclareTrack("link 0->1") // stays idle: must still be named
	s.Emit(&Event{Name: "t0", Track: "PE 0 (RISC)", Kind: 'X', Ts: 0, Dur: 10})
	s.Emit(&Event{Name: "mark", Track: "PE 0 (RISC)", Kind: 'I', Ts: 5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	if n != 2 {
		t.Errorf("non-metadata events = %d, want 2", n)
	}
	// The idle declared track still has its thread_name record.
	if !strings.Contains(buf.String(), "link 0-\\u003e1") && !strings.Contains(buf.String(), "link 0->1") {
		t.Errorf("idle track missing from trace:\n%s", buf.String())
	}
}

// TestChromeSinkTrackOrder pins tid assignment to declaration order:
// the schedule renderer relies on it to keep PE rows above link rows.
func TestChromeSinkTrackOrder(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.DeclareTrack("PE 0")
	s.DeclareTrack("PE 1")
	s.DeclareTrack("link 0->1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"PE 0": 1, "PE 1": 2, "link 0->1": 3}
	for _, e := range events {
		if e.Name != "thread_name" {
			continue
		}
		name, _ := e.Args["name"].(string)
		if want[name] != 0 && e.Tid != want[name] {
			t.Errorf("track %q got tid %d, want %d", name, e.Tid, want[name])
		}
	}
}

func TestChromeSinkNegativeDurClamped(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(&Event{Name: "bad", Track: "t", Kind: 'X', Ts: 1, Dur: -5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("clamped trace fails validation: %v", err)
	}
}

func TestChromeSinkSurfacesWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	s := NewChromeSink(&errWriter{n: 2, err: wantErr}) // the opening "[\n" fits, nothing else
	s.Emit(&Event{Name: "a", Track: "t", Kind: 'X'})
	if !errors.Is(s.Err(), wantErr) {
		t.Errorf("Err = %v, want %v", s.Err(), wantErr)
	}
	if !errors.Is(s.Close(), wantErr) {
		t.Errorf("Close = %v, want %v", s.Close(), wantErr)
	}
}

func TestChromeSinkCloseTwice(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("second Close wrote more bytes")
	}
	s.Emit(&Event{Name: "late", Track: "t"}) // after Close: dropped, no panic
	if buf.Len() != n {
		t.Error("Emit after Close wrote bytes")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []struct {
		name, doc string
	}{
		{"not an array", `{"name":"x"}`},
		{"trailing data", `[] []`},
		{"missing name", `[{"ph":"X","ts":0,"pid":1,"tid":1}]`},
		{"unknown phase", `[{"name":"a","ph":"Q","pid":1,"tid":1}]`},
		{"negative ts", `[{"name":"tn","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},{"name":"a","ph":"X","ts":-1,"pid":1,"tid":1}]`},
		{"unnamed tid", `[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":7}]`},
	}
	for _, c := range bad {
		if _, err := ValidateChromeTrace(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTracerSpanAndInstant(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	end := tr.Span("phase", "track")
	tr.Emit(Event{Name: "mark", Track: "track", Kind: 'I'})
	end()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d events, want 2: %q", len(lines), buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Name != "phase" || ev.Kind != 'X' || ev.Dur < 0 {
		t.Errorf("span event: %+v", ev)
	}
}

func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer claims enabled")
	}
	// Span is the call on scheduler hot paths; Emit takes its Event by
	// value whose address escapes into the sink call, so it is excluded
	// from the zero-alloc guarantee.
	allocs := testing.AllocsPerRun(100, func() {
		end := tr.Span("x", "y")
		end()
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocates %.1f per run, want 0", allocs)
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	if c.R() != nil || c.T() != nil {
		t.Error("nil collector handed out non-nil halves")
	}
}
