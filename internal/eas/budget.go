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

	"nocsched/internal/ctg"
)

// WeightFunc computes a task's slack-allocation weight from its per-PE
// execution-time and energy arrays (restricted to runnable PEs).
// Intuitively (paper Step 1.2): the higher the weight, the higher the
// priority of the task in selecting its PE, because its mapping has a
// larger impact on energy and performance.
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
func ComputeBudget(g *ctg.Graph, weight WeightFunc, scale float64, commBandwidth int64) (*Budget, error) {
	if weight == nil {
		weight = WeightVarEVarR
	}
	if scale < 0 || scale > 1 || math.IsNaN(scale) {
		return nil, fmt.Errorf("eas: slack scale %g outside [0,1]", scale)
	}
	commTime := func(eid ctg.EdgeID) float64 {
		if commBandwidth <= 0 {
			return 0
		}
		v := g.Edge(eid).Volume
		if v <= 0 {
			return 0
		}
		return float64((v + commBandwidth - 1) / commBandwidth)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	b := &Budget{
		Mean:   make([]float64, n),
		Weight: make([]float64, n),
		BD:     make([]int64, n),
	}
	for i := 0; i < n; i++ {
		t := g.Task(ctg.TaskID(i))
		times, energies := runnableArrays(t)
		b.Mean[i] = mean(times2f(times))
		b.Weight[i] = weight(times, energies)
		if b.Weight[i] < 0 || math.IsNaN(b.Weight[i]) {
			return nil, fmt.Errorf("eas: task %d: invalid weight %g", i, b.Weight[i])
		}
		b.BD[i] = ctg.NoDeadline
	}

	// Forward pass: fwd[t] = longest mean path ending at t (inclusive,
	// with expected communication time on the arcs when enabled);
	// fwdW[t] = weight sum along that arg-max path. Ties break toward
	// the heavier path for determinism.
	fwd := make([]float64, n)
	fwdW := make([]float64, n)
	for _, t := range order {
		bestLen, bestW := 0.0, 0.0
		for _, eid := range g.In(t) {
			p := g.Edge(eid).Src
			cand := fwd[p] + commTime(eid)
			if cand > bestLen || (cand == bestLen && fwdW[p] > bestW) {
				bestLen, bestW = cand, fwdW[p]
			}
		}
		fwd[t] = bestLen + b.Mean[t]
		fwdW[t] = bestW + b.Weight[t]
	}

	// Per deadline task d: backward pass over the ancestors of d.
	bwd := make([]float64, n)
	bwdW := make([]float64, n)
	reaches := make([]bool, n)
	for _, d := range g.DeadlineTasks() {
		deadline := float64(g.Task(d).Deadline)
		for i := range reaches {
			reaches[i] = false
			bwd[i], bwdW[i] = 0, 0
		}
		reaches[d] = true
		// Reverse topological order guarantees successors are final
		// before their predecessors.
		for i := len(order) - 1; i >= 0; i-- {
			t := order[i]
			if t == d {
				bwd[t] = b.Mean[t]
				bwdW[t] = b.Weight[t]
				continue
			}
			bestLen, bestW := -1.0, 0.0
			for _, eid := range g.Out(t) {
				s := g.Edge(eid).Dst
				if !reaches[s] {
					continue
				}
				cand := bwd[s] + commTime(eid)
				if cand > bestLen || (cand == bestLen && bwdW[s] > bestW) {
					bestLen, bestW = cand, bwdW[s]
				}
			}
			if bestLen < 0 {
				continue // t cannot reach d
			}
			reaches[t] = true
			bwd[t] = bestLen + b.Mean[t]
			bwdW[t] = bestW + b.Weight[t]
		}
		for i := 0; i < n; i++ {
			t := ctg.TaskID(i)
			if !reaches[t] {
				continue
			}
			pathLen := fwd[t] + bwd[t] - b.Mean[t]
			slack := deadline - pathLen
			if slack < 0 {
				slack = 0 // infeasible-by-means path: no slack to hand out
			}
			totalW := fwdW[t] + bwdW[t] - b.Weight[t]
			var share float64
			switch {
			case totalW > 0:
				share = slack * fwdW[t] / totalW
			case pathLen > 0:
				// All-zero weights (e.g. a fully homogeneous platform):
				// fall back to time-proportional distribution.
				share = slack * fwd[t] / pathLen
			default:
				share = slack
			}
			bd := int64(math.Round(fwd[t] + share*scale))
			if bd < b.BD[t] {
				b.BD[t] = bd
			}
		}
	}
	return b, nil
}

// runnableArrays filters a task's per-PE arrays down to the PEs that can
// run it, so incapable PEs (negative exec time) do not pollute the
// statistics.
func runnableArrays(t *ctg.Task) ([]int64, []float64) {
	times := make([]int64, 0, len(t.ExecTime))
	energies := make([]float64, 0, len(t.Energy))
	for k, r := range t.ExecTime {
		if r >= 0 {
			times = append(times, r)
			energies = append(energies, t.Energy[k])
		}
	}
	return times, energies
}

func times2f(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
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

// varianceInt64 is variance over int64 samples, summed in float64 in
// the same order.
func varianceInt64(xs []int64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := 0.0
	for _, x := range xs {
		m += float64(x)
	}
	m /= float64(len(xs))
	sum := 0.0
	for _, x := range xs {
		d := float64(x) - m
		sum += d * d
	}
	return sum / float64(len(xs))
}
