package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/telemetry"
)

// goldenRegistry builds a registry exercising all four metric kinds
// with deliberately unsorted registration order.
func goldenRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.Gauge("sched_makespan_tu").Set(412)
	r.Counter("sched_probes_total").Add(10864)
	r.Histogram("batch_instance_latency_us", []int64{100, 1000, 10000}).Observe(50)
	h := r.Histogram("batch_instance_latency_us", nil) // get-or-create keeps the layout
	h.Observe(400)
	h.Observe(400)
	h.Observe(99999) // overflow
	r.Grid("sim_link_flits", 3, 3).Add(0, 1, 7)
	r.Grid("sim_link_flits", 3, 3).Add(2, 0, 3)
	r.Counter("batch_instances_total").Add(96)
	r.Gauge("energy_total_nj").Set(28965.228010542852)
	return r
}

// TestPromGolden pins the exact exposition bytes for a registry with
// all four metric kinds against testdata/metrics.golden.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate by hand if the format changed): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestPromDeterministic: two scrapes of an unchanged registry are
// byte-identical (the acceptance criterion behind /metrics caching and
// diffable time-series).
func TestPromDeterministic(t *testing.T) {
	r := goldenRegistry()
	var b1, b2 bytes.Buffer
	if err := WritePrometheus(&b1, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

// TestPromValidates: the encoder's own output passes the in-repo
// exposition validator, and the validator counts every sample line.
func TestPromValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(&buf)
	if err != nil {
		t.Fatalf("own output rejected: %v", err)
	}
	// 2 counters + 2 gauges + (3 buckets + +Inf + sum + count) + 2 grid
	// cells = 12 samples.
	if n != 12 {
		t.Errorf("validator counted %d samples, want 12", n)
	}
}

// TestPromGridShapes: a grid name registered under two shapes, as two
// platform sizes register sched_probe_pair_total, is one family with
// one TYPE line, and each sample names its shape, so cell (0,1) of the
// 3x3 grid and of the 4x4 grid stay two series.
func TestPromGridShapes(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Grid("pairs", 4, 4).Add(0, 1, 5)
	r.Grid("pairs", 3, 3).Add(0, 1, 7)
	r.Grid("pairs", 3, 3).Add(2, 2, 1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE pairs counter
pairs{shape="3x3",row="0",col="1"} 7
pairs{shape="3x3",row="2",col="2"} 1
pairs{shape="4x4",row="0",col="1"} 5
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	if n, err := ValidateExposition(&buf); err != nil || n != 3 {
		t.Errorf("validator: n=%d err=%v, want 3 samples", n, err)
	}
}

// TestPromEmptySnapshot: a nil registry serves an empty but valid
// document.
func TestPromEmptySnapshot(t *testing.T) {
	var nilReg *telemetry.Registry
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nilReg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty snapshot produced output: %q", buf.String())
	}
	if n, err := ValidateExposition(&buf); err != nil || n != 0 {
		t.Errorf("empty exposition: n=%d err=%v", n, err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"sched_probes_total", "sched_probes_total"},
		{"", "_"},
		{"9lives", "_9lives"},
		{"a-b.c d", "a_b_c_d"},
		{"ns:metric", "ns:metric"},
		{"é⚡x", "__x"}, // one underscore per rune, not per byte
	}
	for _, c := range cases {
		got := SanitizeMetricName(c.in)
		if got != c.want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", c.in, got, c.want)
		}
		if !validMetricName(got) {
			t.Errorf("SanitizeMetricName(%q) = %q is not a valid metric name", c.in, got)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestValidateExpositionRejects: one malformed document per violation
// class.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no type", "foo 1\n", "no TYPE"},
		{"bad type", "# TYPE foo widget\nfoo 1\n", "unknown type"},
		{"dup type", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n", "duplicate TYPE"},
		{"bad name", "# TYPE 9foo counter\n", "invalid metric name"},
		{"bad value", "# TYPE foo counter\nfoo x\n", "bad value"},
		{"unquoted label", "# TYPE foo counter\nfoo{a=b} 1\n", "not quoted"},
		{"unterminated label", "# TYPE foo counter\nfoo{a=\"b} 1\n", "unterminated"},
		{"bad escape", "# TYPE foo counter\nfoo{a=\"\\t\"} 1\n", "bad escape"},
		{"hist not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "not cumulative"},
		{"hist no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"hist missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "_sum"},
		{"hist count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "!= count"},
		{"hist stray series", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\nh_extra 1\n", "no TYPE"},
	}
	for _, c := range cases {
		_, err := ValidateExposition(strings.NewReader(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateExpositionAccepts covers shapes beyond what
// WritePrometheus emits: HELP comments, label sets with escapes,
// non-finite values, timestamps.
func TestValidateExpositionAccepts(t *testing.T) {
	doc := "# HELP foo a counter with spaces in help\n" +
		"# TYPE foo counter\n" +
		"foo{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\\n\"} 3 1700000000\n" +
		"# TYPE bar gauge\n" +
		"bar NaN\n" +
		"# TYPE baz gauge\n" +
		"baz +Inf\n"
	n, err := ValidateExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("counted %d samples, want 3", n)
	}
}
