package diag

import (
	"net/http"

	"bytes"
	"flag"
	"io"
	"nocsched/internal/obs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsched/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSessionOff(t *testing.T) {
	sess, err := parse(t).Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Collector() != nil {
		t.Error("collector allocated with no telemetry flag")
	}
	if sess.ChromeSink() != nil {
		t.Error("chrome sink allocated with no -trace-out")
	}
	var buf bytes.Buffer
	if err := sess.WriteReport(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("WriteReport without -metrics wrote %q (%v)", buf.String(), err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestSessionArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	sess, err := parse(t, "-metrics", "-trace-out", tracePath, "-metrics-out", metricsPath).Start()
	if err != nil {
		t.Fatal(err)
	}
	col := sess.Collector()
	if col == nil || !col.Tracer.Enabled() {
		t.Fatal("collector/tracer not live with telemetry flags set")
	}
	col.Registry.Counter("test_counter").Add(3)
	end := col.Tracer.Span("phase", "test")
	end()
	if sess.ChromeSink() == nil {
		t.Fatal("no chrome sink for -trace-out")
	}

	var report bytes.Buffer
	if err := sess.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "run metrics:") ||
		!strings.Contains(report.String(), "test_counter") {
		t.Errorf("report content:\n%s", report.String())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if _, err := telemetry.ValidateChromeTrace(tf); err != nil {
		t.Errorf("trace artifact: %v", err)
	}
	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := telemetry.ValidateSnapshot(mf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Errorf("snapshot counters: %+v", snap.Counters)
	}
}

func TestMetricsOnlyNoTraceFile(t *testing.T) {
	// -metrics alone enables collection without creating any file.
	sess, err := parse(t, "-metrics").Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Collector() == nil {
		t.Fatal("no collector for -metrics")
	}
	if sess.Collector().Tracer.Enabled() {
		t.Error("tracer enabled with no sink — the typed-nil guard regressed")
	}
}

func TestNilSession(t *testing.T) {
	var sess *Session
	if sess.Collector() != nil || sess.ChromeSink() != nil {
		t.Error("nil session handed out handles")
	}
	if err := sess.WriteReport(io.Discard); err != nil {
		t.Error(err)
	}
	if err := sess.Close(); err != nil {
		t.Error(err)
	}
}

func TestStartFailsOnBadTracePath(t *testing.T) {
	f := parse(t, "-trace-out", filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"))
	if _, err := f.Start(); err == nil {
		t.Error("unwritable -trace-out accepted")
	}
}

// TestSessionServe: -serve stands up the live ops plane — collector
// implied on, /metrics scrapeable, /readyz flipping on MarkReady — and
// -metrics-stream leaves a valid JSONL time-series behind.
func TestSessionServe(t *testing.T) {
	streamPath := filepath.Join(t.TempDir(), "stream.jsonl")
	sess, err := parse(t, "-serve", "127.0.0.1:0", "-metrics-stream", streamPath).Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Collector() == nil {
		t.Fatal("-serve did not imply telemetry collection")
	}
	if sess.obsServer == nil {
		t.Fatal("no ops server with -serve set")
	}
	base := sess.obsServer.URL()
	sess.Collector().Registry.Counter("diag_test_total").Add(7)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before MarkReady = %d, want 503", code)
	}
	sess.MarkReady()
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after MarkReady = %d, want 200", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "diag_test_total 7") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "runtime_goroutines") {
		t.Error("/metrics lacks the runtime collector series")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// The server is down after Close.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("ops server still answering after Close")
	}
	// The stream artifact validates and saw the counter.
	raw, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateSnapshotStream(bytes.NewReader(raw)); err != nil {
		t.Errorf("stream artifact: %v", err)
	}
	if !strings.Contains(string(raw), "diag_test_total") {
		t.Error("stream artifact missing the test counter")
	}

	// MarkReady is nil-safe.
	var nilSess *Session
	nilSess.MarkReady()
}

// TestStartFailsOnBadServeAddr: an unusable -serve address fails Start
// instead of leaving a half-started session behind.
func TestStartFailsOnBadServeAddr(t *testing.T) {
	if _, err := parse(t, "-serve", "256.0.0.1:bad").Start(); err == nil {
		t.Error("unusable -serve address accepted")
	}
	if _, err := parse(t, "-metrics-stream", filepath.Join(t.TempDir(), "no", "dir", "s.jsonl")).Start(); err == nil {
		t.Error("unwritable -metrics-stream accepted")
	}
}

func TestStartProfilingDisabled(t *testing.T) {
	stop, err := startProfiling("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilingWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	tr := filepath.Join(dir, "trace.out")
	stop, err := startProfiling(cpu, mem, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartProfilingBadPath(t *testing.T) {
	if _, err := startProfiling(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), "", ""); err == nil {
		t.Fatal("expected error for uncreatable cpu profile path")
	}
}
