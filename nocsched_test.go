package nocsched_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
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

// TestPublicAPIFaultTolerance exercises the fault-scenario facade:
// write/read a scenario, replay a schedule with its faults injected and
// check that exactly the packets touching the dead hardware are lost.
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
	s := res.Schedule
	clean, err := nocsched.Replay(s, nocsched.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Packets) == 0 || clean.Failures != 0 {
		t.Fatalf("fault-free replay: %d packets, %d failures", len(clean.Packets), clean.Failures)
	}
	// Kill the PE that receives the first packet.
	dead := s.Transactions[clean.Packets[0].Edge].DstPE

	// Scenario JSON round trip through the facade.
	sc := &nocsched.FaultScenario{Name: "api", PEs: []nocsched.TileID{nocsched.TileID(dead)}}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc2, err := nocsched.ReadFaultScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.Validate(platform); err != nil {
		t.Fatal(err)
	}
	if sc2.Name != "api" || sc2.NumFaults() != 1 || !sc2.DeadPE(nocsched.TileID(dead)) {
		t.Fatalf("round trip lost the scenario: %+v", sc2)
	}

	// A dead PE loses every packet sent from or to its tile and nothing
	// else: the router keeps forwarding through traffic.
	sim, err := nocsched.Replay(s, nocsched.SimOptions{Faults: sc2.SimFaults()})
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i := range sim.Packets {
		p := &sim.Packets[i]
		tr := &s.Transactions[p.Edge]
		touches := tr.SrcPE == dead || tr.DstPE == dead
		if p.Failed != touches {
			t.Errorf("edge %d (%d->%d): failed=%v", p.Edge, tr.SrcPE, tr.DstPE, p.Failed)
		}
		if touches {
			lost++
		}
	}
	if lost == 0 || sim.Failures != lost {
		t.Errorf("Failures = %d, want %d (> 0)", sim.Failures, lost)
	}

	// Random scenarios are reproducible from a seed and valid, and
	// invalid injections are typed errors.
	r1 := nocsched.RandomFaultScenario(rand.New(rand.NewSource(9)), platform, 3)
	r2 := nocsched.RandomFaultScenario(rand.New(rand.NewSource(9)), platform, 3)
	if r1.NumFaults() != 3 || r1.Validate(platform) != nil {
		t.Fatalf("random scenario %+v", r1)
	}
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("same seed, different scenarios:\n%s\n%s", b1.String(), b2.String())
	}
	bad := []nocsched.SimFault{{Kind: nocsched.SimFaultPE, Tile: 99}}
	if _, err := nocsched.Replay(s, nocsched.SimOptions{Faults: bad}); !errors.Is(err, nocsched.ErrBadSimFault) {
		t.Errorf("error %v does not wrap ErrBadSimFault", err)
	}
}

// TestPublicAPIResilience exercises the resilience facade: transient
// faults with retransmission and impact assessment.
func TestPublicAPIResilience(t *testing.T) {
	platform, err := nocsched.NewHeterogeneousMesh(3, 3, nocsched.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := nocsched.GenerateTGFF(nocsched.TGFFParams{
		Name: "api-resil", Seed: 5, NumTasks: 24, MaxInDegree: 3,
		LocalityWindow: 8, TaskTypes: 5, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 4096,
		DeadlineLaxity: 2, DeadlineFraction: 1, Platform: platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nocsched.EAS(g, acg, nocsched.EASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule

	// A transient window over one routed transaction: dropped without
	// retries, recovered (and visible in the impact) with them.
	var f nocsched.SimFault
	for i := range s.Transactions {
		if tr := &s.Transactions[i]; len(tr.Route) > 0 {
			f = nocsched.SimFault{
				Kind: nocsched.SimFaultTransientLink, Link: tr.Route[0],
				Cycle:    tr.Start,
				Duration: tr.Finish - tr.Start + int64(len(tr.Route)) + 4,
			}
			break
		}
	}
	dropped, err := nocsched.Replay(s, nocsched.SimOptions{Faults: []nocsched.SimFault{f}})
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Failures == 0 {
		t.Fatal("transient window corrupted nothing")
	}
	retried, err := nocsched.Replay(s, nocsched.SimOptions{
		Faults: []nocsched.SimFault{f},
		Retx:   nocsched.RetxOptions{MaxRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if retried.Failures != 0 || retried.Retransmitted == 0 || retried.RetryEnergy <= 0 {
		t.Fatalf("retransmission did not recover: %d failed, %d retx, retry energy %v",
			retried.Failures, retried.Retransmitted, retried.RetryEnergy)
	}
	imDrop, err := nocsched.AssessImpact(s, dropped)
	if err != nil {
		t.Fatal(err)
	}
	imRetry, err := nocsched.AssessImpact(s, retried)
	if err != nil {
		t.Fatal(err)
	}
	if imRetry.HitRatio() <= imDrop.HitRatio() {
		t.Errorf("retry hit ratio %v not above drop baseline %v",
			imRetry.HitRatio(), imDrop.HitRatio())
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
