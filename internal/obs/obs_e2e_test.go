package obs

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// obsRig generates a mid-size TGFF benchmark stream on a 4x4 mesh.
func obsRig(t *testing.T, n int) ([]*ctg.Graph, *energy.ACG) {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*ctg.Graph, n)
	for i := range graphs {
		params := tgff.SuiteParams(tgff.CategoryI, i%tgff.SuiteSize, p)
		params.Seed = int64(i + 1)
		params.NumTasks = 60
		graphs[i], err = tgff.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
	}
	return graphs, acg
}

// TestServeDoesNotChangeSchedule extends the telemetry-on/off
// bit-identity guarantee to the live plane: schedules computed by a
// batch engine whose registry is concurrently scraped by an ops server
// (and fed by a runtime collector) are bit-identical (sched.Diff) to
// an unobserved serial run.
func TestServeDoesNotChangeSchedule(t *testing.T) {
	graphs, acg := obsRig(t, 6)
	insts := make([]batch.Instance, len(graphs))
	algos := []string{batch.AlgoEAS, batch.AlgoEDF, batch.AlgoDLS}
	for i, g := range graphs {
		insts[i] = batch.Instance{Name: g.Name, Graph: g, ACG: acg, Algorithm: algos[i%len(algos)]}
	}

	plain := batch.New(batch.Options{Workers: 2})
	refs, err := plain.Run(context.Background(), insts)
	if err != nil {
		t.Fatal(err)
	}

	col := telemetry.NewCollector(nil)
	rc := StartRuntime(col.Registry, time.Millisecond)
	defer rc.Close()
	srv, err := Serve("127.0.0.1:0", Options{Registry: col.Registry})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Scrape aggressively while the observed engine runs.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			resp, err := http.Get(srv.URL() + "/metrics")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	observed := batch.New(batch.Options{Workers: 2, Telemetry: col})
	results, err := observed.Run(context.Background(), insts)
	close(stopScrape)
	<-scrapeDone
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", results[i].Name, results[i].Err)
		}
		if d := sched.Diff(refs[i].Schedule, results[i].Schedule); d != "" {
			t.Fatalf("%s: observed schedule diverged: %s", results[i].Name, d)
		}
	}

	// The final scrape exposes the full expected series set.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("final scrape invalid: %v", err)
	}
	for _, want := range []string{
		batch.MetricQueueDepth, batch.MetricInstances, batch.MetricLatency + "_bucket",
		sched.MetricProbes, "energy_comm_switch_nj", "energy_comm_link_nj",
		MetricGoroutines, MetricUptime,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("scrape missing %s", want)
		}
	}
}

// TestScrapedArtifactsValidate is the CI live-observability hook: when
// NOCSCHED_PROM_FILE points at a /metrics scrape of a running schedd
// daemon it must be valid exposition containing the batch
// queue/latency, sched probe, energy-split and runtime collector
// series; NOCSCHED_OBS_SNAPSHOT (optional) must be a valid /snapshot
// document; NOCSCHED_OBS_STREAM (optional) must be a valid JSONL
// snapshot time-series. Skips without the env hook.
func TestScrapedArtifactsValidate(t *testing.T) {
	promFile := os.Getenv("NOCSCHED_PROM_FILE")
	if promFile == "" {
		t.Skip("NOCSCHED_PROM_FILE not set (CI hook)")
	}
	raw, err := os.ReadFile(promFile)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("scrape invalid: %v", err)
	}
	t.Logf("scrape: %d samples", n)
	for _, want := range []string{
		"batch_queue_depth", "batch_instances_total", "batch_instance_latency_us_bucket",
		"sched_probes_total", "energy_comm_switch_nj", "energy_comm_link_nj",
		"runtime_goroutines", "runtime_heap_alloc_bytes", "process_uptime_seconds",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if snapFile := os.Getenv("NOCSCHED_OBS_SNAPSHOT"); snapFile != "" {
		f, err := os.Open(snapFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := telemetry.ValidateSnapshot(f); err != nil {
			t.Errorf("/snapshot artifact invalid: %v", err)
		}
	}
	if streamFile := os.Getenv("NOCSCHED_OBS_STREAM"); streamFile != "" {
		f, err := os.Open(streamFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		lines, err := ValidateSnapshotStream(f)
		if err != nil {
			t.Errorf("snapshot stream invalid: %v", err)
		}
		t.Logf("stream: %d lines", lines)
	}
}
