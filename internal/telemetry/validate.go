package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// ValidateChromeTrace checks that r holds a well-formed Chrome
// trace_event JSON array as emitted by ChromeSink: a single array whose
// elements all carry a name, a known phase, a pid and a tid; complete
// events ("X") must have non-negative ts and dur, and every non-metadata
// event must land on a thread that was named by a thread_name metadata
// record. It returns the number of non-metadata events. The CI telemetry
// lane runs this against a real easched artifact so a malformed trace
// fails the build.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var events []map[string]json.RawMessage
	dec := json.NewDecoder(r)
	if err := dec.Decode(&events); err != nil {
		return 0, fmt.Errorf("telemetry: trace is not a JSON array: %w", err)
	}
	if dec.More() {
		return 0, fmt.Errorf("telemetry: trailing data after the trace array")
	}
	named := make(map[int64]bool) // tids with a thread_name record
	n := 0
	for i, ev := range events {
		var name, ph string
		if err := field(ev, "name", &name); err != nil {
			return 0, fmt.Errorf("telemetry: event %d: %w", i, err)
		}
		if err := field(ev, "ph", &ph); err != nil {
			return 0, fmt.Errorf("telemetry: event %d (%q): %w", i, name, err)
		}
		var pid, tid int64
		if err := field(ev, "pid", &pid); err != nil {
			return 0, fmt.Errorf("telemetry: event %d (%q): %w", i, name, err)
		}
		switch ph {
		case "M":
			if name == "thread_name" {
				if err := field(ev, "tid", &tid); err != nil {
					return 0, fmt.Errorf("telemetry: event %d (%q): %w", i, name, err)
				}
				named[tid] = true
			}
		case "X":
			var ts, dur int64
			if err := field(ev, "ts", &ts); err != nil {
				return 0, fmt.Errorf("telemetry: event %d (%q): %w", i, name, err)
			}
			if raw, ok := ev["dur"]; ok {
				if err := json.Unmarshal(raw, &dur); err != nil {
					return 0, fmt.Errorf("telemetry: event %d (%q): bad dur: %w", i, name, err)
				}
			}
			if ts < 0 || dur < 0 {
				return 0, fmt.Errorf("telemetry: event %d (%q): negative ts/dur (%d/%d)", i, name, ts, dur)
			}
			fallthrough
		case "i", "I":
			if err := field(ev, "tid", &tid); err != nil {
				return 0, fmt.Errorf("telemetry: event %d (%q): %w", i, name, err)
			}
			if !named[tid] {
				return 0, fmt.Errorf("telemetry: event %d (%q): tid %d has no thread_name record", i, name, tid)
			}
			n++
		default:
			return 0, fmt.Errorf("telemetry: event %d (%q): unknown phase %q", i, name, ph)
		}
	}
	return n, nil
}

// field unmarshals a required member of a raw event object.
func field(ev map[string]json.RawMessage, key string, dst any) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("bad %q: %w", key, err)
	}
	return nil
}

// ValidateSnapshot decodes and checks a metrics snapshot JSON document
// (the -metrics-out format): names must be non-empty and unique per
// kind (a grid's name and shape together), counters non-negative, histogram bounds strictly ascending with
// len(counts) == len(bounds)+1 and bucket counts summing to count, and
// grid cells in range. It returns the decoded snapshot.
func ValidateSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: snapshot decode: %w", err)
	}
	seen := make(map[string]bool)
	uniq := func(kind, name, shape string) error {
		if name == "" {
			return fmt.Errorf("telemetry: %s with empty name", kind)
		}
		key := kind + "\x00" + name + "\x00" + shape
		if seen[key] {
			return fmt.Errorf("telemetry: duplicate %s %q%s", kind, name, shape)
		}
		seen[key] = true
		return nil
	}
	for _, c := range s.Counters {
		if err := uniq("counter", c.Name, ""); err != nil {
			return nil, err
		}
		if c.Value < 0 {
			return nil, fmt.Errorf("telemetry: counter %q negative (%d)", c.Name, c.Value)
		}
	}
	for _, g := range s.Gauges {
		if err := uniq("gauge", g.Name, ""); err != nil {
			return nil, err
		}
	}
	for _, h := range s.Histograms {
		if err := uniq("histogram", h.Name, ""); err != nil {
			return nil, err
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("telemetry: histogram %q: %d counts for %d bounds",
				h.Name, len(h.Counts), len(h.Bounds))
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				return nil, fmt.Errorf("telemetry: histogram %q: bounds not ascending", h.Name)
			}
		}
		var total int64
		for _, n := range h.Counts {
			if n < 0 {
				return nil, fmt.Errorf("telemetry: histogram %q: negative bucket count", h.Name)
			}
			total += n
		}
		if total != h.Count {
			return nil, fmt.Errorf("telemetry: histogram %q: buckets sum to %d, count is %d",
				h.Name, total, h.Count)
		}
	}
	for _, g := range s.Grids {
		if err := uniq("grid", g.Name, fmt.Sprintf(" %dx%d", g.Rows, g.Cols)); err != nil {
			return nil, err
		}
		if g.Rows <= 0 || g.Cols <= 0 {
			return nil, fmt.Errorf("telemetry: grid %q: bad shape %dx%d", g.Name, g.Rows, g.Cols)
		}
		for _, c := range g.Cells {
			if c.Row < 0 || c.Row >= g.Rows || c.Col < 0 || c.Col >= g.Cols {
				return nil, fmt.Errorf("telemetry: grid %q: cell (%d,%d) outside %dx%d",
					g.Name, c.Row, c.Col, g.Rows, g.Cols)
			}
		}
	}
	return &s, nil
}
