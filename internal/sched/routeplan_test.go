package sched

import (
	"testing"

	"nocsched/internal/ctg"
)

// TestRoutePlanMatchesACGRoutes checks the flattened plan against the
// ACG's own routes, pair by pair.
func TestRoutePlanMatchesACGRoutes(t *testing.T) {
	_, acg := proberRig(t, 51, 10)
	p := NewRoutePlan(acg)
	if p.ACG() != acg || p.n != acg.NumPEs() {
		t.Fatalf("plan identity: ACG match %v, PEs %d want %d", p.ACG() == acg, p.n, acg.NumPEs())
	}
	for i := 0; i < acg.NumPEs(); i++ {
		for j := 0; j < acg.NumPEs(); j++ {
			route := acg.Route(i, j)
			idx := i*p.n + j
			links := p.ids[p.off[idx]:p.off[idx+1]]
			if len(links) != len(route) {
				t.Fatalf("pair (%d,%d): plan has %d links, route %d", i, j, len(links), len(route))
			}
			for k, l := range route {
				if links[k] != int(l) {
					t.Fatalf("pair (%d,%d) hop %d: plan link %d, route %d", i, j, k, links[k], l)
				}
			}
		}
	}
}

// TestPlanMatchesLazySchedules is the plan-vs-lazy determinism oracle:
// a builder with a shared plan attached must schedule bit-identically
// to one using its private lazy route cache.
func TestPlanMatchesLazySchedules(t *testing.T) {
	g, acg := proberRig(t, 52, 45)
	var ready []ctg.TaskID
	ref := driveEF(t, NewBuilder(g, acg, "test").NewProber(), ready)

	b := NewBuilder(g, acg, "test")
	if err := b.SetRoutePlan(NewRoutePlan(acg)); err != nil {
		t.Fatal(err)
	}
	if d := Diff(ref, driveEF(t, b.NewProber(), ready)); d != "" {
		t.Errorf("plan-backed schedule diverges from lazy-cache schedule:\n%s", d)
	}
}

// TestPlanBypassesLazyFill pins the sharing invariant: with a plan
// attached, a full schedule performs no lazy route-cache writes — the
// per-builder routeSet stays untouched, so the only route state in use
// is the immutable shared plan plus the builder's flat table-pointer
// array. This is what makes cross-builder plan sharing race-free.
func TestPlanBypassesLazyFill(t *testing.T) {
	g, acg := proberRig(t, 53, 40)
	b := NewBuilder(g, acg, "test")
	if err := b.SetRoutePlan(NewRoutePlan(acg)); err != nil {
		t.Fatal(err)
	}
	var ready []ctg.TaskID
	driveEF(t, b.NewProber(), ready)
	for idx, set := range b.routeSet {
		if set {
			t.Fatalf("lazy route cache filled for pair %d despite attached plan", idx)
		}
	}
	// Reset on the same ACG must keep the plan attached.
	b.Reset(g, acg)
	if b.plan == nil {
		t.Error("same-ACG Reset dropped the route plan")
	}
}

// TestSetRoutePlanRejectsMisuse covers the two guarded error paths:
// plans for a different ACG and attachment to a builder already in use.
func TestSetRoutePlanRejectsMisuse(t *testing.T) {
	g, acg := proberRig(t, 54, 20)
	_, other := proberRig(t, 55, 20)
	b := NewBuilder(g, acg, "test")
	if err := b.SetRoutePlan(NewRoutePlan(other)); err == nil {
		t.Error("accepted a plan computed for a different ACG")
	}
	var ready []ctg.TaskID
	driveEF(t, b.NewProber(), ready)
	if err := b.SetRoutePlan(NewRoutePlan(acg)); err == nil {
		t.Error("accepted a plan on a builder already in use")
	}
}

// TestPlanProbeSteadyStateAllocs bounds the read-only probe path with a
// shared plan attached: after warm-up, probing allocates nothing — the
// prober's overlay scratch and the plan's flat arrays are all reused,
// and no lazy cache entries are ever materialized.
func TestPlanProbeSteadyStateAllocs(t *testing.T) {
	g, acg := proberRig(t, 56, 40)
	b := NewBuilder(g, acg, "test")
	if err := b.SetRoutePlan(NewRoutePlan(acg)); err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("plan-backed read-only probe allocates %.2f objects/run, want 0", avg)
	}
}
