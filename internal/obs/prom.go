// Package obs is the live observability plane over the telemetry
// layer: a Prometheus text-exposition encoder for every registry kind,
// an HTTP ops server (/metrics, /healthz, /readyz, /snapshot,
// /debug/pprof/), a Go runtime collector that samples memstats and
// goroutine counts into the registry on a ticker, and a periodic
// snapshot streamer that appends timestamped registry snapshots as a
// JSONL time-series.
//
// Where internal/telemetry answers "what happened in this run" as
// post-mortem artifacts, obs answers "what is happening right now" for
// a long-lived scheduling service. Everything here is a read-only
// consumer of telemetry.Snapshot: attaching the plane never perturbs
// scheduling (the telemetry-on/off bit-identity guarantee keeps
// holding with an ops server scraping, pinned by
// TestServeDoesNotChangeSchedule).
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"nocsched/internal/telemetry"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). The mapping per registry kind:
//
//   - counters    -> `# TYPE n counter` + one unlabeled sample;
//   - gauges      -> `# TYPE n gauge` + one unlabeled sample;
//   - histograms  -> `# TYPE n histogram` + cumulative `n_bucket`
//     series with `le` labels (the registry's int64 bounds plus the
//     `+Inf` overflow bucket), then `n_sum` and `n_count`;
//   - grids       -> `# TYPE n counter` + one `{row="r",col="c"}`
//     labeled sample per non-zero cell, row-major. A name registered
//     under several shapes (one per platform size) is one family, and
//     each of its samples also carries a leading `shape="RxC"` label,
//     since cell (r, c) of one shape is another tile than (r, c) of the
//     next.
//
// Metric names are sanitized to the Prometheus charset and label
// values escaped per the format rules. Because Snapshot ordering is a
// documented guarantee (sorted by name within each kind), the output
// is byte-deterministic: two scrapes of an unchanged registry are
// identical.
func WritePrometheus(w io.Writer, s telemetry.Snapshot) error {
	var b strings.Builder
	for _, c := range s.Counters {
		n := SanitizeMetricName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := SanitizeMetricName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", n, n, formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		n := SanitizeMetricName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", n, bound, cum)
		}
		if len(h.Counts) > len(h.Bounds) {
			cum += h.Counts[len(h.Counts)-1]
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count)
	}
	for i, g := range s.Grids {
		n := SanitizeMetricName(g.Name)
		// Snapshot sorts the shapes of one name next to each other.
		first := i == 0 || s.Grids[i-1].Name != g.Name
		if first {
			fmt.Fprintf(&b, "# TYPE %s counter\n", n)
		}
		shape := ""
		if !first || (i+1 < len(s.Grids) && s.Grids[i+1].Name == g.Name) {
			shape = fmt.Sprintf("shape=\"%dx%d\",", g.Rows, g.Cols)
		}
		for _, cell := range g.Cells {
			fmt.Fprintf(&b, "%s{%srow=\"%d\",col=\"%d\"} %d\n", n, shape, cell.Row, cell.Col, cell.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SanitizeMetricName maps an arbitrary string onto the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*: invalid runes become
// '_', a leading digit gets a '_' prefix, and the empty string becomes
// "_". The registry's own metric names are already clean; this guards
// user-registered names reaching /metrics.
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline become \\, \" and \n. Every
// other byte passes through unchanged (the format is UTF-8 clean).
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// formatValue renders a float64 sample value; Prometheus accepts
// +Inf/-Inf/NaN spellings for the non-finite cases.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
