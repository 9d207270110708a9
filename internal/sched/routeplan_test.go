package sched

import (
	"testing"
)

// TestRoutePlanMatchesACGRoutes checks the builder's route plan — the
// table-pointer array aligned with the ACG's flat links — against the
// ACG's own routes, pair by pair: each hop's link ID must be the
// route's, and its table must be that link's table.
func TestRoutePlanMatchesACGRoutes(t *testing.T) {
	g, acg := proberRig(t, 51, 10)
	b := NewBuilder(g, acg, "test")
	if len(b.routeTabs) != len(acg.Links()) {
		t.Fatalf("route plan has %d tables, ACG %d links", len(b.routeTabs), len(acg.Links()))
	}
	for i := 0; i < acg.NumPEs(); i++ {
		for j := 0; j < acg.NumPEs(); j++ {
			route := acg.Route(i, j)
			tables, links := b.routeTables(i, j)
			if len(links) != len(route) || len(tables) != len(route) {
				t.Fatalf("pair (%d,%d): plan has %d links and %d tables, route %d",
					i, j, len(links), len(tables), len(route))
			}
			for k, l := range route {
				if links[k] != l {
					t.Fatalf("pair (%d,%d) hop %d: plan link %d, route %d", i, j, k, links[k], l)
				}
				if tables[k] != &b.linkTables[l] {
					t.Fatalf("pair (%d,%d) hop %d: table is not link %d's", i, j, k, l)
				}
			}
		}
	}
}

// TestPlanProbeSteadyStateAllocs bounds the read-only probe path on a
// fresh builder: after warm-up, probing allocates nothing — the
// prober's overlay scratch and the ACG's flat route arrays are all
// reused, and no route state is written.
func TestPlanProbeSteadyStateAllocs(t *testing.T) {
	g, acg := proberRig(t, 56, 40)
	b := NewBuilder(g, acg, "test")
	pr := b.NewProber()
	ready := b.AppendReady(nil)
	if len(ready) == 0 {
		t.Fatal("no ready tasks")
	}
	task := ready[0]
	if _, err := pr.Probe(task, 0); err != nil { // warm the overlay scratch
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		for k := 0; k < b.ACG().NumPEs(); k++ {
			if !g.Task(task).RunnableOn(k) {
				continue
			}
			if _, err := pr.Probe(task, k); err != nil {
				panic(err)
			}
		}
	})
	if avg > 0 {
		t.Errorf("read-only probe allocates %.2f objects/run, want 0", avg)
	}
}
