// Package eas implements the paper's primary contribution: the
// Energy-Aware Scheduling (EAS) algorithm that statically co-schedules
// computation tasks and communication transactions onto a heterogeneous
// NoC under real-time constraints (Sec. 5).
//
// The algorithm has three steps:
//
//  1. Budget slack allocation (budget.go) — every task receives a
//     Budgeted Deadline (BD) by distributing path slack proportionally
//     to the task weights W_t = VAR_e(t) * VAR_r(t).
//  2. Level-based scheduling (eas.go) — list scheduling over the Ready
//     Task List, probing F(i,k) with the exact link-contention model of
//     Fig. 3 and choosing tasks/PEs by budget pressure or energy regret.
//  3. Search and repair (repair.go) — Local Task Swapping and Global
//     Task Migration fix residual deadline misses (Fig. 4).
//
// EAS-base is steps 1–2; EAS is all three.
package eas

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"nocsched/internal/ctg"
)

// WeightFunc computes a task's slack-allocation weight from its per-PE
// execution-time and energy arrays (restricted to runnable PEs).
// Intuitively (paper Step 1.2): the higher the weight, the higher the
// priority of the task in selecting its PE, because its mapping has a
// larger impact on energy and performance. ComputeBudget rejects a
// weight that is negative, NaN or infinite.
//
// ComputeBudget hands every call the same two scratch slices, refilled
// per task, so a WeightFunc must not retain its arguments.
type WeightFunc func(execTimes []int64, energies []float64) float64

// WeightVarEVarR is the paper's weight, W_t = VAR_e * VAR_r.
func WeightVarEVarR(execTimes []int64, energies []float64) float64 {
	return variance(energies) * varianceInt64(execTimes)
}

// WeightVarE uses only the energy variance (ablation).
func WeightVarE(execTimes []int64, energies []float64) float64 {
	return variance(energies)
}

// WeightUniform gives every task the same weight, i.e. slack is split
// evenly along each path (ablation).
func WeightUniform([]int64, []float64) float64 { return 1 }

// Budget is the result of Step 1: per-task mean execution times, weights
// and budgeted deadlines.
type Budget struct {
	// Mean[t] is M_t, the mean execution time of task t over the PEs
	// that can run it.
	Mean []float64
	// Weight[t] is W_t.
	Weight []float64
	// BD[t] is the budgeted deadline of task t, or ctg.NoDeadline when
	// no deadline constrains the task (no deadline-carrying task is
	// reachable from it).
	BD []int64
}

// ComputeBudget runs Step 1 of EAS on graph g with the given weight
// function (nil selects the paper's WeightVarEVarR).
//
// For every deadline-carrying task d and every task t on a path to d,
// the slack of the longest (mean-execution-time) source-to-d path
// through t is distributed over that path's tasks proportionally to
// their weights; t's budgeted deadline toward d is the end of its share.
// BD(t) is the minimum over all reachable deadline tasks, so the
// tightest downstream constraint wins. This reproduces the paper's
// Fig. 2 example exactly (weights 100/200/100 over a 400-unit slack give
// budgeted deadlines 400/800/1300).
//
// The distributed slack is multiplied by scale in [0, 1]. Scale 1 is
// the paper's Step 1; smaller scales tighten every budgeted deadline
// uniformly, pushing the level scheduler toward faster (hungrier)
// placements. Scale 0 makes every task maximally urgent (BD = its
// longest mean path), approaching a performance-greedy schedule.
//
// When commBandwidth > 0, every arc also contributes
// volume/commBandwidth time units to the path lengths used for slack
// computation (the paper's Step 1 budgets over mean execution times
// only, which overestimates slack on communication-heavy paths —
// frame-sized transfers on a NoC take hundreds of cycles);
// commBandwidth <= 0 disables the term. The EAS driver retries with
// the communication term, then with shrinking scales, when
// search-and-repair cannot eliminate all deadline misses.
//
// Tasks are relabeled by topological position once per call, and each
// deadline's backward pass walks only the deadline task's ancestor
// cone, pushing paths over in-arcs in descending position; a task
// outside the cone costs one stamp test, not a walk of its arcs. The
// working memory comes from a pool, so a steady-state call allocates
// only the returned Budget and the topological order; the EAS driver
// computes the order once per solve.
//
// ComputeBudget rejects a weight whose slack share is not finite: each
// weight may be finite while their sum along a path overflows, which
// would otherwise turn the share into NaN and the BD into garbage.
func ComputeBudget(g *ctg.Graph, weight WeightFunc, scale float64, commBandwidth int64) (*Budget, error) {
	if scale < 0 || scale > 1 || math.IsNaN(scale) {
		return nil, fmt.Errorf("eas: slack scale %g outside [0,1]", scale)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return computeBudget(g, order, weight, scale, commBandwidth)
}

// computeBudget is ComputeBudget given g's topological order and a
// scale already checked to lie in [0, 1].
func computeBudget(g *ctg.Graph, order []ctg.TaskID, weight WeightFunc, scale float64, commBandwidth int64) (*Budget, error) {
	if weight == nil {
		weight = WeightVarEVarR
	}
	n := g.NumTasks()
	b := &Budget{
		Mean:   make([]float64, n),
		Weight: make([]float64, n),
		BD:     make([]int64, n),
	}
	s := budgetPool.Get().(*budgetScratch)
	defer budgetPool.Put(s)
	for i := 0; i < n; i++ {
		t := g.Task(ctg.TaskID(i))
		// The statistics come from the PEs that can run the task, so
		// incapable PEs (negative exec time) do not pollute them.
		s.times, s.energies = s.times[:0], s.energies[:0]
		for k, r := range t.ExecTime {
			if r >= 0 {
				s.times = append(s.times, r)
				s.energies = append(s.energies, t.Energy[k])
			}
		}
		b.Mean[i] = meanInt64(s.times)
		b.Weight[i] = weight(s.times, s.energies)
		if b.Weight[i] < 0 || math.IsNaN(b.Weight[i]) || math.IsInf(b.Weight[i], 1) {
			return nil, fmt.Errorf("eas: task %d: invalid weight %g", i, b.Weight[i])
		}
	}

	// Relabel tasks by topological position and lay their in-arcs flat
	// in g.In order. The same forward pass computes fwd (the longest
	// mean path ending at the task, inclusive, with expected
	// communication time on the arcs when enabled), fwdW (the weight
	// sum along that arg-max path; ties break toward the heavier path
	// for determinism).
	s.pos = slices.Grow(s.pos[:0], n)[:n]
	for p, t := range order {
		s.pos[t] = int32(p)
	}
	nodes := slices.Grow(s.nodes[:0], n)[:n]
	arcs := s.arcs[:0]
	for p, t := range order {
		nd := &nodes[p]
		*nd = budgetNode{mean: b.Mean[t], weight: b.Weight[t], bd: ctg.NoDeadline}
		bestLen, bestW := 0.0, 0.0
		nd.inLo = int32(len(arcs))
		for _, eid := range g.In(t) {
			e := g.Edge(eid)
			a := budgetArc{src: s.pos[e.Src], comm: arcTime(e.Volume, commBandwidth)}
			arcs = append(arcs, a)
			pn := &nodes[a.src]
			cand := pn.fwd + a.comm
			if cand > bestLen || (cand == bestLen && pn.fwdW > bestW) {
				bestLen, bestW = cand, pn.fwdW
			}
		}
		nd.inHi = int32(len(arcs))
		nd.fwd = bestLen + nd.mean
		nd.fwdW = bestW + nd.weight
	}
	s.nodes, s.arcs = nodes, arcs

	// Per deadline task d: a walk of d's ancestor cone in descending
	// position, from d down to the lowest cone task found so far. A
	// task joins the cone (stamp) when a cone successor pushes its
	// backward path over an in-arc; every successor lies higher, so by
	// the time the walk reaches a cone task its path is final, and its
	// share is priced then. Positions outside the cone cost one stamp
	// test and none of their arcs. The pushed (length, weight) pairs
	// meet in a lexicographic max, which no NaN reaches (lengths and
	// weight sums are non-negative, at worst +Inf), so the result does
	// not depend on arc order.
	var stamp int32
	for i := 0; i < n; i++ {
		td := g.Task(ctg.TaskID(i))
		if !td.HasDeadline() {
			continue
		}
		deadline := float64(td.Deadline)
		stamp++
		pd := s.pos[i]
		d := &nodes[pd]
		d.stamp, d.bwd, d.bwdW = stamp, 0, 0
		lo, bad := pd, int32(-1)
		for p := pd; p >= lo; p-- {
			nt := &nodes[p]
			if nt.stamp != stamp {
				continue // t cannot reach d
			}
			nt.bwd += nt.mean
			nt.bwdW += nt.weight
			for _, a := range arcs[nt.inLo:nt.inHi] {
				pn := &nodes[a.src]
				cand := nt.bwd + a.comm
				switch {
				case pn.stamp != stamp:
					pn.stamp, pn.bwd, pn.bwdW = stamp, cand, nt.bwdW
					lo = min(lo, a.src)
				case cand > pn.bwd || (cand == pn.bwd && nt.bwdW > pn.bwdW):
					pn.bwd, pn.bwdW = cand, nt.bwdW
				}
			}
			pathLen := nt.fwd + nt.bwd - nt.mean
			slack := deadline - pathLen
			if slack < 0 {
				slack = 0 // infeasible-by-means path: no slack to hand out
			}
			totalW := nt.fwdW + nt.bwdW - nt.weight
			var share float64
			switch {
			case totalW > 0:
				share = slack * nt.fwdW / totalW
				if !(share <= math.MaxFloat64) {
					bad = p // NaN or +Inf: the path's weights overflow
				}
			case pathLen > 0:
				// All-zero weights (e.g. a fully homogeneous platform):
				// fall back to time-proportional distribution.
				share = slack * nt.fwd / pathLen
			default:
				share = slack
			}
			bd := int64(math.Round(nt.fwd + share*scale))
			nt.bd = min(nt.bd, bd)
		}
		if bad >= 0 {
			return nil, fmt.Errorf("eas: task %d: invalid weight share toward deadline task %d", order[bad], i)
		}
	}
	for p, t := range order {
		b.BD[t] = nodes[p].bd
	}
	return b, nil
}

// budgetNode is one task's Step 1 state at its topological position:
// its mean and weight, its longest forward path (fwd, fwdW), its
// longest backward path to the current deadline task (bwd, bwdW; the
// best pushed so far until the cone walk reaches the task), its
// budgeted deadline so far, and its in-arcs arcs[inLo:inHi]. stamp
// equals the current deadline's stamp when the task reaches that
// deadline task, which spares a reset per deadline.
type budgetNode struct {
	mean, weight float64
	fwd, fwdW    float64
	bwd, bwdW    float64
	bd           int64
	stamp        int32
	inLo, inHi   int32
}

// budgetArc is an in-arc by topological position: its source and the
// expected communication time charged to it.
type budgetArc struct {
	src  int32
	comm float64
}

// budgetScratch is ComputeBudget's reusable working memory: the
// per-task filtered arrays handed to the WeightFunc, the task-to-
// position map, the nodes and the flat in-arcs.
type budgetScratch struct {
	times    []int64
	energies []float64
	pos      []int32
	nodes    []budgetNode
	arcs     []budgetArc
}

var budgetPool = sync.Pool{New: func() any { return new(budgetScratch) }}

// arcTime is the expected communication time of an arc of the given
// volume at commBandwidth, rounded up; commBandwidth <= 0 disables it.
func arcTime(volume, commBandwidth int64) float64 {
	if commBandwidth <= 0 || volume <= 0 {
		return 0
	}
	return float64((volume + commBandwidth - 1) / commBandwidth)
}

// mean returns the arithmetic mean of xs, or 0 for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// variance returns the population variance of xs (dividing by N, not
// N-1): the paper's weights W = VAR_e * VAR_r are variances over the
// finite set of PEs. It returns 0 for fewer than two elements.
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// meanInt64 is mean over int64 samples, summed in float64 in order.
func meanInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// varianceInt64 is variance over int64 samples, summed in float64 in
// the same order.
func varianceInt64(xs []int64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanInt64(xs)
	sum := 0.0
	for _, x := range xs {
		d := float64(x) - m
		sum += d * d
	}
	return sum / float64(len(xs))
}
