package sim

import (
	"testing"

	"nocsched/internal/noc"
	"nocsched/internal/sched"
)

// twoTilePacket builds a one-edge schedule whose single packet crosses
// the mesh from tile 0 to tile 2, returning the schedule and the
// packet's route.
func twoTilePacket(t *testing.T) (*sched.Schedule, []noc.LinkID) {
	t.Helper()
	g, acg := rig(t)
	a := addTask(t, g, 10)
	b := addTask(t, g, 10)
	g.AddEdge(a, b, 500)
	bld := sched.NewBuilder(g, acg, "test")
	bld.Commit(a, 0)
	bld.Commit(b, 2)
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Transactions) != 1 {
		t.Fatalf("want 1 transaction, got %d", len(s.Transactions))
	}
	return s, s.Transactions[0].Route
}

func TestFaultLinkKillsPacket(t *testing.T) {
	s, route := twoTilePacket(t)
	res, err := Replay(s, Options{Faults: []Fault{
		{Kind: FaultLink, Link: route[0], Cycle: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", res.Failures)
	}
	p := res.Packets[0]
	if !p.Failed || p.Delivered != -1 {
		t.Fatalf("lost packet not marked failed: %+v", p)
	}
	// A lost packet is not a late delivery: failure is reported on its
	// own axis.
	if late := res.LateDeliveries(s); len(late) != 0 {
		t.Fatalf("failed packet also counted late: %+v", late)
	}
}

func TestFaultAfterDeliveryHarmless(t *testing.T) {
	s, route := twoTilePacket(t)
	clean, err := Replay(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := clean.Packets[0].Delivered
	res, err := Replay(s, Options{Faults: []Fault{
		{Kind: FaultLink, Link: route[0], Cycle: done + 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("fault after delivery killed %d packets", res.Failures)
	}
	if res.Packets[0].Delivered != done {
		t.Fatalf("delivery time changed: %d vs %d", res.Packets[0].Delivered, done)
	}
}

func TestFaultRouterKillsTransitTraffic(t *testing.T) {
	s, _ := twoTilePacket(t)
	// Tile 1 is mid-route for 0 -> 2 under XY: killing its router must
	// drop the packet even though neither endpoint died.
	res, err := Replay(s, Options{Faults: []Fault{
		{Kind: FaultRouter, Tile: 1, Cycle: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", res.Failures)
	}
}

func TestFaultPESparesThroughTraffic(t *testing.T) {
	s, _ := twoTilePacket(t)
	// A dead PE on the transit tile keeps the router forwarding: the
	// packet must still deliver.
	res, err := Replay(s, Options{Faults: []Fault{
		{Kind: FaultPE, Tile: 1, Cycle: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("through-traffic killed by PE fault: %d failures", res.Failures)
	}
	// A dead destination PE, by contrast, loses the packet.
	res, err = Replay(s, Options{Faults: []Fault{
		{Kind: FaultPE, Tile: 2, Cycle: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("packet to dead PE delivered: %d failures", res.Failures)
	}
}

func TestFaultMidFlightKillsInTransit(t *testing.T) {
	s, route := twoTilePacket(t)
	// Injection happens at cycle 10 (sender finish). Activate the fault
	// while flits are on the wire.
	res, err := Replay(s, Options{Faults: []Fault{
		{Kind: FaultLink, Link: route[len(route)-1], Cycle: 12},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("mid-flight fault missed the packet: %+v", res.Packets[0])
	}
	// The simulator must still terminate (no flits wedged forever).
	if res.Cycles <= 0 {
		t.Fatalf("bad cycle count %d", res.Cycles)
	}
}

func TestFaultValidation(t *testing.T) {
	s, _ := twoTilePacket(t)
	cases := []Fault{
		{Kind: FaultLink, Link: 9999, Cycle: 0},
		{Kind: FaultRouter, Tile: -1, Cycle: 0},
		{Kind: FaultPE, Tile: 99, Cycle: 0},
		{Kind: FaultKind(42), Cycle: 0},
		{Kind: FaultLink, Link: 0, Cycle: -5},
	}
	for _, f := range cases {
		if _, err := Replay(s, Options{Faults: []Fault{f}}); err == nil {
			t.Errorf("fault %+v accepted", f)
		}
	}
}
