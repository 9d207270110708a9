package nocsched_test

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nocsched"
)

// TestPublicAPIQuickstart exercises the facade the README documents:
// build a graph, build a platform, schedule with EAS and EDF, validate,
// serialize, replay.
func TestPublicAPIQuickstart(t *testing.T) {
	g := nocsched.NewGraph("api")
	a, err := g.AddTask("a",
		[]int64{50, 70, 100, 180},
		[]float64{200, 91, 100, 63}, nocsched.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AddTask("b",
		[]int64{60, 84, 120, 216},
		[]float64{240, 109, 120, 76}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a, b, 8192); err != nil {
		t.Fatal(err)
	}

	platform, err := nocsched.NewHeterogeneousMesh(2, 2, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}

	res, err := nocsched.EAS(g, acg, nocsched.EASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("EAS schedule invalid: %v", err)
	}
	if !res.Schedule.Feasible() {
		t.Error("EAS missed the deadline")
	}

	edfSched, err := nocsched.EDF(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.TotalEnergy() > edfSched.TotalEnergy() {
		t.Errorf("EAS energy %v above EDF %v on a loose instance",
			res.Schedule.TotalEnergy(), edfSched.TotalEnergy())
	}

	// JSON round trip through the facade.
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := nocsched.ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != g.NumTasks() {
		t.Error("JSON round trip lost tasks")
	}

	// Flit-level replay through the facade.
	replay, err := nocsched.Replay(res.Schedule, nocsched.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(replay.LateDeliveries(res.Schedule)); got != 0 {
		t.Errorf("%d late deliveries in replay", got)
	}
}

// TestPublicAPITopologies exercises the mesh/honeycomb/custom topology
// constructors.
func TestPublicAPITopologies(t *testing.T) {
	mesh, err := nocsched.NewMesh(3, 3, nocsched.RouteYX)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.NumTiles() != 9 {
		t.Error("mesh size wrong")
	}
	honey, err := nocsched.NewHoneycomb(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if honey.NumTiles() != 12 {
		t.Error("honeycomb size wrong")
	}
	ring, err := nocsched.NewGraphTopology("ring", [][]nocsched.TileID{{1}, {2}, {3}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	classes := []nocsched.PEClass{
		nocsched.ClassCPU, nocsched.ClassDSP, nocsched.ClassRISC, nocsched.ClassARM,
	}
	if _, err := nocsched.NewPlatform(ring, classes, 128); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIMSB exercises the multimedia benchmark constructors and
// TGFF generator through the facade.
func TestPublicAPIMSB(t *testing.T) {
	platform, err := nocsched.NewHeterogeneousMesh(2, 2, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, clip := range nocsched.MSBClips {
		g, err := nocsched.MSBEncoder(clip, platform)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumTasks() != 24 {
			t.Errorf("%s: encoder task count %d", clip.Name, g.NumTasks())
		}
	}
	g, err := nocsched.GenerateTGFF(nocsched.TGFFParams{
		Name: "api-tgff", Seed: 3, NumTasks: 50, MaxInDegree: 2,
		LocalityWindow: 8, TaskTypes: 5, ExecMin: 10, ExecMax: 100,
		HeteroSpread: 0.4, VolumeMin: 128, VolumeMax: 1024,
		DeadlineLaxity: 1.5, DeadlineFraction: 1, Platform: platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIBaselinesAndAnalysis exercises the remaining facade
// surface: the DLS baseline, platform specs, and the weighted ACG.
func TestPublicAPIBaselinesAndAnalysis(t *testing.T) {
	platform, err := nocsched.NewHeterogeneousMesh(2, 2, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	g := nocsched.NewGraph("facade")
	a, _ := g.AddTask("a", []int64{50, 70, 100, 180}, []float64{200, 91, 100, 63}, nocsched.NoDeadline)
	b, _ := g.AddTask("b", []int64{50, 70, 100, 180}, []float64{200, 91, 100, 63}, 5000)
	g.AddEdge(a, b, 2048)

	s, err := nocsched.DLS(g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	weighted, err := nocsched.BuildACGWeighted(platform,
		nocsched.DefaultEnergyModel(), nocsched.UniformLinkScale(platform.Topo))
	if err != nil {
		t.Fatal(err)
	}
	if weighted.BitEnergy(0, 1) != acg.BitEnergy(0, 1) {
		t.Error("uniform weighted ACG differs from plain ACG")
	}

	spec := nocsched.PlatformSpec{Topology: "honeycomb", Width: 3, Height: 3, Bandwidth: 64}
	hp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hp.NumPEs() != 9 {
		t.Errorf("spec platform PEs = %d", hp.NumPEs())
	}

	// Unroll through the facade.
	u, err := nocsched.Unroll(g, 2, 6000, []nocsched.CrossDep{{From: b, To: a, Volume: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumTasks() != 4 {
		t.Errorf("unrolled tasks = %d", u.NumTasks())
	}
}

// TestPublicAPIFaultTolerance is the facade's smoke test of the
// fault-free wormhole replay; the simulator no longer injects faults,
// and the name is kept from when it did. It replays an EAS schedule of
// a 24-task graph on a 3x3 mesh at buffer depths 1 and 2 and checks
// that every packet is delivered no earlier than its injection plus
// serialization and no later than its scheduled finish plus pipeline
// fill plus its own stall cycles.
func TestPublicAPIFaultTolerance(t *testing.T) {
	platform, err := nocsched.NewHeterogeneousMesh(3, 3, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := nocsched.GenerateTGFF(nocsched.TGFFParams{
		Name: "api-fault", Seed: 3, NumTasks: 24, MaxInDegree: 3,
		LocalityWindow: 8, TaskTypes: 5, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 4096,
		DeadlineLaxity: 3, DeadlineFraction: 1, Platform: platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nocsched.EAS(g, acg, nocsched.EASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2} {
		replay, err := nocsched.Replay(res.Schedule, nocsched.SimOptions{BufferFlits: depth})
		if err != nil {
			t.Fatal(err)
		}
		if len(replay.Packets) == 0 {
			t.Fatal("replay simulated no packets")
		}
		for _, p := range replay.Packets {
			if p.Delivered < p.Injected+p.Flits {
				t.Errorf("depth %d: edge %d delivered at %d, injected at %d with %d flits", depth, p.Edge, p.Delivered, p.Injected, p.Flits)
			}
			if -p.Slack() > p.StallCycles {
				t.Errorf("depth %d: edge %d %d cycles late with %d stall cycles", depth, p.Edge, -p.Slack(), p.StallCycles)
			}
		}
	}
}

// TestPublicAPIVerification exercises the conformance-oracle facade: a
// scheduler-built schedule verifies clean, a tampered JSON artifact
// loaded leniently yields typed findings, and the analytic flit-energy
// prediction matches the simulator's measured accounting.
func TestPublicAPIVerification(t *testing.T) {
	g := nocsched.NewGraph("verify-api")
	a, err := g.AddTask("a",
		[]int64{50, 70, 100, 180},
		[]float64{200, 91, 100, 63}, nocsched.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AddTask("b",
		[]int64{60, 84, 120, 216},
		[]float64{240, 109, 120, 76}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a, b, 8192); err != nil {
		t.Fatal(err)
	}
	platform, err := nocsched.NewHeterogeneousMesh(2, 2, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := nocsched.EAS(g, acg, nocsched.EASOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if rep := nocsched.VerifySchedule(res.Schedule); !rep.OK() {
		t.Fatalf("oracle flags the EAS schedule:\n%s", rep)
	}

	// Tamper through the lenient JSON path: pull a task backwards in
	// time so the oracle must object, whatever the placement was.
	var buf bytes.Buffer
	if err := res.Schedule.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Replace(buf.Bytes(), []byte(`"start": 0`), []byte(`"start": -3`), 1)
	if bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("tampering had no effect; adjust the mutation")
	}
	bad, err := nocsched.ReadScheduleJSONLenient(bytes.NewReader(raw), g, acg)
	if err != nil {
		t.Fatal(err)
	}
	rep := nocsched.VerifyScheduleOptions(bad, nocsched.VerifyOptions{})
	if rep.OK() {
		t.Fatal("oracle accepted a tampered schedule")
	}
	if rep.Count(nocsched.VerifyClassTask) == 0 {
		t.Fatalf("no task-placement finding for a negative start:\n%s", rep)
	}

	// Analytic flit-energy prediction vs. simulator accounting.
	replay, err := nocsched.Replay(res.Schedule, nocsched.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := nocsched.ExpectedFlitEnergy(res.Schedule)
	if got := replay.MeasuredCommEnergy; got < want*0.999999 || got > want*1.000001 {
		t.Fatalf("measured comm energy %v, analytic prediction %v", got, want)
	}
}

// TestPublicAPIObservability exercises the live-plane facade: serve a
// registry, scrape and validate it, runtime metrics, a snapshot
// stream, and the bench-regression comparator.
func TestPublicAPIObservability(t *testing.T) {
	col := nocsched.NewTelemetry(nil)
	col.Registry.Counter("api_obs_total").Add(5)
	rt := nocsched.StartRuntimeMetrics(col.Registry, time.Hour)
	defer rt.Close()

	var ready atomic.Bool
	srv, err := nocsched.ServeObservability("127.0.0.1:0", nocsched.ObsOptions{
		Registry: col.Registry,
		Ready:    ready.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if resp, err := http.Get(srv.URL() + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz = %d before ready, want 503", resp.StatusCode)
		}
	}
	ready.Store(true)
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples, err := nocsched.ValidatePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape invalid: %v", err)
	}
	if samples == 0 || !bytes.Contains(body, []byte("api_obs_total 5")) {
		t.Errorf("scrape (%d samples) missing the counter:\n%s", samples, body)
	}
	if !bytes.Contains(body, []byte("runtime_goroutines")) {
		t.Error("scrape missing the runtime series")
	}

	// WritePrometheus renders the same snapshot the server serves.
	var direct bytes.Buffer
	if err := nocsched.WritePrometheus(&direct, col.Registry.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(direct.Bytes(), []byte("api_obs_total 5")) {
		t.Error("WritePrometheus missing the counter")
	}

	// The snapshot stream leaves a valid JSONL time-series.
	var stream bytes.Buffer
	st := nocsched.StartMetricsStream(&stream, col.Registry, time.Hour)
	st.Sample()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := nocsched.ValidateMetricsStream(bytes.NewReader(stream.Bytes())); err != nil || n < 2 {
		t.Errorf("stream = %d lines, %v", n, err)
	}
}
