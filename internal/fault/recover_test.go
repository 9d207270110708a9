package fault

import (
	"errors"
	"math/rand"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
	"nocsched/internal/tgff"
)

// faultRig builds a 3x3 heterogeneous platform, a loose-deadline TGFF
// graph and its fault-free (feasible) EAS schedule.
func faultRig(t *testing.T, seed int64, tasks int) *sched.Schedule {
	t.Helper()
	p := testPlatform(t, 3, 3)
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgff.Generate(tgff.Params{
		Name: "fault-rig", Seed: seed, NumTasks: tasks, MaxInDegree: 3,
		LocalityWindow: 10, TaskTypes: 6, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 4096,
		DeadlineLaxity: 3, DeadlineFraction: 1, Platform: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eas.Schedule(g, acg, eas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Feasible() {
		t.Fatalf("fault-free instance infeasible (seed %d)", seed)
	}
	return res.Schedule
}

// routedTransaction returns a transaction of s with a non-empty route.
func routedTransaction(t *testing.T, s *sched.Schedule) *sched.TransactionPlacement {
	t.Helper()
	for i := range s.Transactions {
		if len(s.Transactions[i].Route) > 0 {
			return &s.Transactions[i]
		}
	}
	t.Fatal("schedule has no routed transactions")
	return nil
}

// TestRecoverScenarios is the acceptance gauntlet: for each recoverable
// 1- and 2-fault scenario, the recovered schedule must validate on the
// degraded platform and replay under the injected faults with zero
// failures and zero late deliveries — while the pre-fault schedule
// injected with the same scenario loses at least one packet.
func TestRecoverScenarios(t *testing.T) {
	s := faultRig(t, 7, 30)
	tr := routedTransaction(t, s)

	scenarios := []*Scenario{
		{Name: "1-pe", PEs: []noc.TileID{noc.TileID(tr.SrcPE)}},
		{Name: "1-router", Routers: []noc.TileID{noc.TileID(tr.SrcPE)}},
		{Name: "1-link", Links: []noc.LinkID{tr.Route[0]}},
		{Name: "2-pe-link",
			PEs:   []noc.TileID{noc.TileID(tr.DstPE)},
			Links: []noc.LinkID{tr.Route[0]}},
		{Name: "2-pes",
			PEs: []noc.TileID{noc.TileID(tr.SrcPE), noc.TileID(tr.DstPE)}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			// The fault must actually hurt: the pre-fault schedule
			// replayed under it loses at least one packet.
			broken, err := sim.Replay(s, sim.Options{Faults: sc.SimFaults()})
			if err != nil {
				t.Fatal(err)
			}
			if broken.Failures == 0 {
				t.Fatalf("scenario %q does not touch the schedule", sc.Name)
			}

			rec, err := Recover(s, sc, Options{})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if err := rec.Schedule.Validate(); err != nil {
				t.Fatalf("recovered schedule invalid on degraded platform: %v", err)
			}
			if !rec.Feasible() || rec.Stats.MissesAfter != 0 {
				t.Fatalf("recovery left %d deadline misses", rec.Stats.MissesAfter)
			}
			// No recovered task sits on dead hardware.
			for i := range rec.Schedule.Tasks {
				if rec.Degraded.DeadPE[rec.Schedule.Tasks[i].PE] {
					t.Fatalf("task %d recovered onto dead PE %d", i, rec.Schedule.Tasks[i].PE)
				}
			}
			// Replay the recovered schedule with the same faults
			// injected: nothing fails, nothing is late.
			res, err := sim.Replay(rec.Schedule, sim.Options{Faults: sc.SimFaults()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 0 {
				t.Fatalf("recovered schedule lost %d packets to the fault it recovered from", res.Failures)
			}
			if late := res.LateDeliveries(rec.Schedule); len(late) != 0 {
				t.Fatalf("recovered schedule has %d late deliveries", len(late))
			}
			// Stats coherence.
			if rec.Stats.MissesBefore != 0 {
				t.Errorf("MissesBefore = %d on a feasible input", rec.Stats.MissesBefore)
			}
			if rec.Stats.EnergyBefore <= 0 || rec.Stats.EnergyAfter <= 0 {
				t.Errorf("non-positive energies: %+v", rec.Stats)
			}
			if len(sc.PEs)+len(sc.Routers) > 0 && rec.Stats.StrandedTasks == 0 {
				t.Errorf("PE-killing scenario stranded no tasks")
			}
			if rec.Stats.TasksMigrated < rec.Stats.StrandedTasks {
				t.Errorf("migrated %d < stranded %d", rec.Stats.TasksMigrated, rec.Stats.StrandedTasks)
			}
		})
	}
}

func TestRecoverEmptyScenario(t *testing.T) {
	s := faultRig(t, 7, 30)
	rec, err := Recover(s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Triage.StrandedTasks)+len(rec.Triage.SeveredTransactions) > 0 {
		t.Fatalf("empty scenario triaged %+v", rec.Triage)
	}
	if rec.Stats.TasksMigrated != 0 {
		t.Fatalf("empty scenario migrated %d tasks", rec.Stats.TasksMigrated)
	}
	if !rec.Feasible() {
		t.Fatal("feasible schedule became infeasible under the empty scenario")
	}
}

func TestRecoverDisconnected(t *testing.T) {
	s := faultRig(t, 7, 30)
	sc := &Scenario{Name: "island", Routers: []noc.TileID{1, 3}}
	_, err := Recover(s, sc, Options{})
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("error %v does not wrap ErrDisconnected", err)
	}
}

func TestRecoverNoCapablePE(t *testing.T) {
	p := testPlatform(t, 2, 2)
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("pinned")
	// Only PE 1 can run the task; the scenario kills PE 1.
	if _, err := g.AddTask("pin", []int64{-1, 10, -1, -1}, []float64{0, 1, 0, 0}, ctg.NoDeadline); err != nil {
		t.Fatal(err)
	}
	res, err := eas.Schedule(g, acg, eas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Recover(res.Schedule, &Scenario{PEs: []noc.TileID{1}}, Options{})
	if !errors.Is(err, ErrNoCapablePE) {
		t.Fatalf("error %v does not wrap ErrNoCapablePE", err)
	}
}

func TestRecoverNilSchedule(t *testing.T) {
	if _, err := Recover(nil, &Scenario{}, Options{}); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

// TestRecoverRandomSweep drives Recover across random 1- and 2-fault
// scenarios: every outcome must be either a validated schedule or a
// typed unrecoverability error — never a panic, never an untyped error.
func TestRecoverRandomSweep(t *testing.T) {
	s := faultRig(t, 11, 24)
	p := s.ACG.Platform()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		k := 1 + i%2
		sc := Random(rng, p, k)
		rec, err := Recover(s, sc, Options{})
		if err != nil {
			if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrNoCapablePE) {
				t.Fatalf("scenario %+v: untyped error %v", sc, err)
			}
			continue
		}
		if err := rec.Schedule.Validate(); err != nil {
			t.Fatalf("scenario %+v: recovered schedule invalid: %v", sc, err)
		}
	}
}
