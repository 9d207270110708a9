package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"nocsched/internal/telemetry"
)

// TimedSnapshot is one line of the JSONL snapshot time-series: a full
// telemetry.Snapshot stamped with a wall-clock time. Because Snapshot
// ordering is a documented guarantee, lines differ only where metric
// values (or the timestamp) changed — the series diffs and plots
// cleanly offline.
type TimedSnapshot struct {
	// TimeMS is the sample's wall-clock time, milliseconds since the
	// Unix epoch.
	TimeMS int64 `json:"ts_ms"`
	telemetry.Snapshot
}

// SnapshotStream periodically appends TimedSnapshot lines for a
// registry to a writer — the offline companion to /metrics scraping:
// point it at a file during a sweep and plot the queue-depth, latency
// and energy series afterwards. Writes follow the telemetry sink
// error contract: the first write error sticks, later samples are
// dropped, and Close returns it.
type SnapshotStream struct {
	reg  *telemetry.Registry
	stop chan struct{}

	mu     sync.Mutex
	w      io.Writer
	enc    *json.Encoder
	err    error
	closed bool
}

// StartSnapshotStream begins appending a snapshot line every interval
// (<= 0 selects one second). Close stops the ticker, appends one final
// sample, and returns the stream's first write error.
func StartSnapshotStream(w io.Writer, reg *telemetry.Registry, interval time.Duration) *SnapshotStream {
	if interval <= 0 {
		interval = time.Second
	}
	s := &SnapshotStream{reg: reg, w: w, enc: json.NewEncoder(w), stop: make(chan struct{})}
	s.Sample()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Sample appends one timestamped snapshot line now (also called by the
// ticker). No-op after a write error or Close.
func (s *SnapshotStream) Sample() {
	if s == nil {
		return
	}
	// Snapshot outside the lock: registry reads must not wait on file
	// writes.
	ts := TimedSnapshot{TimeMS: time.Now().UnixMilli(), Snapshot: s.reg.Snapshot()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return
	}
	if err := s.enc.Encode(ts); err != nil {
		s.err = err
	}
}

// Close stops the ticker after one final sample and returns the first
// write error. Safe to call more than once; nil closes cleanly.
func (s *SnapshotStream) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		defer s.mu.Unlock()
		return s.err
	}
	s.mu.Unlock()
	close(s.stop)
	s.Sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.err
}

// ValidateSnapshotStream checks a JSONL snapshot time-series: every
// line must decode as a TimedSnapshot with non-decreasing timestamps,
// and each embedded snapshot must satisfy the same structural rules
// telemetry.ValidateSnapshot enforces (it is re-encoded through that
// validator). Returns the number of lines.
func ValidateSnapshotStream(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	n := 0
	lastTS := int64(-1 << 62)
	for dec.More() {
		var ts TimedSnapshot
		if err := dec.Decode(&ts); err != nil {
			return 0, err
		}
		if ts.TimeMS < lastTS {
			return 0, fmt.Errorf("obs: snapshot stream timestamps regress at line %d", n)
		}
		lastTS = ts.TimeMS
		if err := revalidate(ts.Snapshot); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// revalidate round-trips a snapshot through telemetry.ValidateSnapshot.
func revalidate(s telemetry.Snapshot) error {
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(s.WriteJSON(pw))
	}()
	_, err := telemetry.ValidateSnapshot(pr)
	return err
}
