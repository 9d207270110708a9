package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"nocsched/internal/telemetry"
)

func TestSnapshotStream(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("work_total").Add(1)
	var buf bytes.Buffer
	s := StartSnapshotStream(&buf, reg, time.Hour)
	reg.Counter("work_total").Add(41)
	s.Sample()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateSnapshotStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Start sample + explicit sample + Close's final sample.
	if n != 3 {
		t.Errorf("stream has %d lines, want 3", n)
	}
	// The last line carries the final counter value.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last TimedSnapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Counters) != 1 || last.Counters[0].Value != 42 {
		t.Errorf("final line counters = %+v, want work_total=42", last.Counters)
	}
}

// errAfter fails every write after the first n bytes.
type errAfter struct {
	n       int
	written int
}

var errSink = errors.New("sink failed")

func (w *errAfter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errSink
	}
	w.written += len(p)
	return len(p), nil
}

// streamErr returns the stream's recorded write error.
func streamErr(s *SnapshotStream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// TestSnapshotStreamErrorSticks: the first write error is recorded,
// later samples are dropped, Close returns it.
func TestSnapshotStreamErrorSticks(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c").Inc()
	s := StartSnapshotStream(&errAfter{n: 1 << 20}, reg, time.Hour)
	if streamErr(s) != nil {
		t.Fatalf("unexpected early error: %v", streamErr(s))
	}
	s2 := StartSnapshotStream(&errAfter{n: 0}, reg, time.Hour)
	if streamErr(s2) == nil {
		t.Fatal("write error not recorded")
	}
	s2.Sample() // must not panic or overwrite
	if err := s2.Close(); !errors.Is(err, errSink) {
		t.Errorf("Close = %v, want the sink error", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("healthy stream Close = %v", err)
	}
}

func TestValidateSnapshotStreamRejects(t *testing.T) {
	// Timestamp regression.
	doc := `{"ts_ms":5,"counters":null,"gauges":null,"histograms":null,"grids":null}
{"ts_ms":4,"counters":null,"gauges":null,"histograms":null,"grids":null}
`
	if _, err := ValidateSnapshotStream(strings.NewReader(doc)); err == nil {
		t.Error("timestamp regression accepted")
	}
	// Structurally invalid embedded snapshot (negative counter).
	doc = `{"ts_ms":5,"counters":[{"name":"c","value":-1}],"gauges":null,"histograms":null,"grids":null}
`
	if _, err := ValidateSnapshotStream(strings.NewReader(doc)); err == nil {
		t.Error("negative counter accepted")
	}
	// Not JSON at all.
	if _, err := ValidateSnapshotStream(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	var nilS *SnapshotStream
	nilS.Sample()
	if nilS.Close() != nil {
		t.Error("nil stream misbehaves")
	}
}
