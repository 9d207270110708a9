package fault

import (
	"errors"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

func TestDegradeFaultFree(t *testing.T) {
	p := testPlatform(t, 3, 3)
	d, err := Degrade(p, energy.DefaultModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.AlivePEs() != 9 {
		t.Fatalf("AlivePEs = %d, want 9", d.AlivePEs())
	}
	for i, dead := range d.DeadPE {
		if dead {
			t.Fatalf("PE %d dead under the empty scenario", i)
		}
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if !d.ACG.Reachable(i, j) {
				t.Fatalf("pair %d->%d unreachable on a fault-free mesh", i, j)
			}
		}
	}
}

func TestDegradeDeadFlags(t *testing.T) {
	p := testPlatform(t, 3, 3)
	sc := &Scenario{PEs: []noc.TileID{2}, Routers: []noc.TileID{4}}
	d, err := Degrade(p, energy.DefaultModel(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !d.DeadPE[2] || !d.DeadPE[4] {
		t.Fatal("dead flags not set for PE and router faults")
	}
	if d.AlivePEs() != 7 {
		t.Fatalf("AlivePEs = %d, want 7", d.AlivePEs())
	}
	// A dead PE keeps its router: pairs through tile 2 stay reachable.
	if !d.ACG.Reachable(0, 2) {
		t.Error("PE fault must not make its tile unroutable")
	}
	// A dead router poisons every pair touching tile 4.
	if d.ACG.Reachable(0, 4) || d.ACG.Reachable(4, 8) {
		t.Error("router fault left its tile routable")
	}
}

func TestDegradeDisconnected(t *testing.T) {
	p := testPlatform(t, 3, 3)
	// Killing routers 1 and 3 strands the alive corner tile 0.
	sc := &Scenario{Name: "island", Routers: []noc.TileID{1, 3}}
	_, err := Degrade(p, energy.DefaultModel(), sc)
	if err == nil {
		t.Fatal("disconnecting scenario accepted")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("error %v does not wrap ErrDisconnected", err)
	}
}

func TestDegradeInvalidScenario(t *testing.T) {
	p := testPlatform(t, 3, 3)
	if _, err := Degrade(p, energy.DefaultModel(), &Scenario{PEs: []noc.TileID{42}}); err == nil {
		t.Fatal("out-of-range scenario accepted")
	}
}

func TestDegradeGraph(t *testing.T) {
	p := testPlatform(t, 2, 2)
	d, err := Degrade(p, energy.DefaultModel(), &Scenario{PEs: []noc.TileID{3}})
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("dg")
	id, err := g.AddTask("t", []int64{10, 10, 10, 10}, []float64{1, 1, 1, 1}, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := d.DegradeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Task(id).RunnableOn(3) {
		t.Error("task still runnable on the dead PE")
	}
	if !dg.Task(id).RunnableOn(0) {
		t.Error("task lost a surviving PE")
	}
	// The original graph must be untouched.
	if !g.Task(id).RunnableOn(3) {
		t.Error("DegradeGraph mutated its input")
	}
}

func TestDegradeGraphNoCapablePE(t *testing.T) {
	p := testPlatform(t, 2, 2)
	d, err := Degrade(p, energy.DefaultModel(), &Scenario{PEs: []noc.TileID{1}})
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("pinned")
	// Runnable only on PE 1, which the scenario kills.
	if _, err := g.AddTask("pin", []int64{-1, 10, -1, -1}, []float64{0, 1, 0, 0}, ctg.NoDeadline); err != nil {
		t.Fatal(err)
	}
	_, err = d.DegradeGraph(g)
	if err == nil {
		t.Fatal("stranded task accepted")
	}
	if !errors.Is(err, ErrNoCapablePE) {
		t.Fatalf("error %v does not wrap ErrNoCapablePE", err)
	}
}

func TestTriage(t *testing.T) {
	p := testPlatform(t, 3, 3)
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgff.Generate(tgff.Params{
		Name: "triage", Seed: 5, NumTasks: 30, MaxInDegree: 3,
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
	s := res.Schedule

	// Kill the PE hosting task 0 and the first link of the first routed
	// transaction: triage must flag both.
	deadPE := noc.TileID(s.Tasks[0].PE)
	var deadLink noc.LinkID = -1
	for i := range s.Transactions {
		if len(s.Transactions[i].Route) > 0 {
			deadLink = s.Transactions[i].Route[0]
			break
		}
	}
	if deadLink < 0 {
		t.Skip("schedule has no routed transactions")
	}
	sc := &Scenario{PEs: []noc.TileID{deadPE}, Links: []noc.LinkID{deadLink}}
	d, err := Degrade(p, energy.DefaultModel(), sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Triage(s)
	if len(tr.StrandedTasks)+len(tr.SeveredTransactions) == 0 {
		t.Fatal("triage found nothing despite targeted faults")
	}
	found := false
	for _, id := range tr.StrandedTasks {
		if id == 0 {
			found = true
		}
		if s.Tasks[id].PE != int(deadPE) {
			t.Errorf("task %d stranded but lives on PE %d", id, s.Tasks[id].PE)
		}
	}
	if !found {
		t.Error("task 0 not flagged stranded")
	}
	if len(tr.SeveredTransactions) == 0 {
		t.Error("no transaction flagged severed")
	}
	for _, eid := range tr.SeveredTransactions {
		hit := false
		for _, l := range s.Transactions[eid].Route {
			if d.Topology.DeadLink(l) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("transaction %d severed without a dead link on its route", eid)
		}
	}

	// The empty scenario triages nothing.
	d0, err := Degrade(p, energy.DefaultModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr := d0.Triage(s); len(tr.StrandedTasks)+len(tr.SeveredTransactions) > 0 {
		t.Errorf("empty scenario triaged %+v", tr)
	}
}
