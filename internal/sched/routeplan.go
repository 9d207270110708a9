package sched

import (
	"fmt"

	"nocsched/internal/energy"
	"nocsched/internal/schedtable"
)

// RoutePlan is the immutable, precomputed per-pair route table of one
// platform: for every ordered PE pair, the link indices of the ACG
// route, flattened into a single backing array. It exists so that the
// per-builder lazy route cache (routeTabs/routeIDs/routeSet in Builder)
// can be computed once per ACG and then shared read-only by every
// builder and prober scheduling on that platform — the batch engine
// builds one plan per distinct ACG and hands it to all of its workers.
//
// A RoutePlan is never mutated after NewRoutePlan returns, so any
// number of goroutines may consult it concurrently without
// synchronization. Builders attach it with Builder.SetRoutePlan; with a
// plan attached the lazy fill path is bypassed entirely (no routeSet
// writes), which the no-lazy-fill regression test pins down.
type RoutePlan struct {
	acg *energy.ACG
	n   int
	// off[idx] .. off[idx+1] delimit the link IDs of pair idx =
	// src*n+dst inside ids; a PE's route to itself is empty.
	off []int
	ids []int
}

// NewRoutePlan precomputes the route plan of every ordered PE pair of
// the ACG. Cost is one pass over the ACG's already-precomputed routes;
// the result is shared, so in a batch setting this replaces one lazy
// cache fill per builder per pair with one plan per platform.
func NewRoutePlan(acg *energy.ACG) *RoutePlan {
	n := acg.NumPEs()
	total := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			total += len(acg.Route(i, j))
		}
	}
	p := &RoutePlan{
		acg: acg,
		n:   n,
		off: make([]int, n*n+1),
		ids: make([]int, 0, total),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for _, l := range acg.Route(i, j) {
				p.ids = append(p.ids, int(l))
			}
			p.off[i*n+j+1] = len(p.ids)
		}
	}
	return p
}

// ACG returns the architecture characterization graph the plan was
// computed for. Builders refuse plans computed for a different ACG.
func (p *RoutePlan) ACG() *energy.ACG { return p.acg }

// SetRoutePlan attaches a shared route plan to the builder, replacing
// the lazy per-pair route cache: every routeTables lookup then slices
// the plan's precomputed link IDs and a flat per-builder table-pointer
// array materialized here in one allocation. It must be called before
// any probe or commit and the plan must have been computed for the
// builder's ACG.
func (b *Builder) SetRoutePlan(p *RoutePlan) error {
	if p.acg != b.acg {
		return fmt.Errorf("sched: route plan computed for a different ACG")
	}
	if b.nCommitted > 0 {
		return fmt.Errorf("sched: SetRoutePlan on a builder already in use")
	}
	// One flat allocation holds every pair's table pointers, aligned
	// index-for-index with p.ids; routeTables slices both by the plan's
	// offsets.
	tabs := make([]*schedtable.Table, len(p.ids))
	for i, l := range p.ids {
		tabs[i] = &b.linkTables[l]
	}
	b.plan, b.planTabs = p, tabs
	b.invalidate()
	return nil
}
