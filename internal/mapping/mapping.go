// Package mapping implements an energy-aware *mapping* baseline in the
// spirit of the paper's own predecessor, reference [13] (Hu &
// Marculescu, "Energy-aware mapping for tile-based NoC architectures
// under performance constraints", ASP-DAC 2003): choose the assignment
// of tasks to PEs that minimizes the Eq. (3) energy — computation
// energy plus volume-weighted route energy — *without* co-scheduling
// communication, then derive start times afterwards with a list
// scheduler over the fixed assignment.
//
// Comparing EAS against mapping-then-scheduling isolates the paper's
// core claim: that interleaving the communication/computation
// scheduling with the assignment decisions (rather than mapping first
// and scheduling second) is what buys the extra energy and feasibility.
package mapping

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
)

// Options tunes the mapper.
type Options struct {
	// MaxSwapRounds bounds the pairwise-improvement phase; 0 selects
	// a default of 20 full rounds.
	MaxSwapRounds int
}

// Result couples the chosen assignment with the derived schedule.
type Result struct {
	// Assign[t] is the PE chosen for task t.
	Assign []int
	// MappingEnergy is the Eq. (3) energy of the assignment (timing
	// independent).
	MappingEnergy float64
	Schedule      *sched.Schedule
}

// Map runs the baseline: greedy constructive assignment in descending
// task-weight order (energy variance, matching the intuition of [13]
// that high-impact tasks choose first), followed by steepest-descent
// single-task moves and pairwise swaps on the Eq. (3) objective, then
// list scheduling over the fixed assignment.
func Map(g *ctg.Graph, acg *energy.ACG, opts Options) (*Result, error) {
	started := time.Now()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumPEs() != acg.NumPEs() {
		return nil, fmt.Errorf("mapping: CTG characterized for %d PEs, platform has %d",
			g.NumPEs(), acg.NumPEs())
	}
	if opts.MaxSwapRounds <= 0 {
		opts.MaxSwapRounds = 20
	}
	npe := acg.NumPEs()
	n := g.NumTasks()

	// Order tasks by descending assignment impact: the spread between
	// their cheapest and most expensive runnable placement.
	order := make([]ctg.TaskID, n)
	for i := range order {
		order[i] = ctg.TaskID(i)
	}
	spread := make([]float64, n)
	for i := 0; i < n; i++ {
		task := g.Task(ctg.TaskID(i))
		lo, hi := math.Inf(1), math.Inf(-1)
		for k, r := range task.ExecTime {
			if r < 0 {
				continue
			}
			if task.Energy[k] < lo {
				lo = task.Energy[k]
			}
			if task.Energy[k] > hi {
				hi = task.Energy[k]
			}
		}
		spread[i] = hi - lo
	}
	sort.Slice(order, func(a, b int) bool {
		if spread[order[a]] != spread[order[b]] {
			return spread[order[a]] > spread[order[b]]
		}
		return order[a] < order[b]
	})

	// Greedy construction: each task takes the placement minimizing
	// its computation energy plus communication with already-placed
	// neighbors.
	assign := make([]int, n)
	placed := make([]bool, n)
	for i := range assign {
		assign[i] = -1
	}
	commWith := func(t ctg.TaskID, k int) float64 {
		cost := 0.0
		for _, eid := range g.In(t) {
			e := g.Edge(eid)
			if placed[e.Src] {
				cost += acg.CommEnergy(e.Volume, assign[e.Src], k)
			}
		}
		for _, eid := range g.Out(t) {
			e := g.Edge(eid)
			if placed[e.Dst] {
				cost += acg.CommEnergy(e.Volume, k, assign[e.Dst])
			}
		}
		return cost
	}
	for _, t := range order {
		task := g.Task(t)
		best, bestCost := -1, math.Inf(1)
		for k := 0; k < npe; k++ {
			if !task.RunnableOn(k) {
				continue
			}
			cost := task.Energy[k] + commWith(t, k)
			if cost < bestCost {
				bestCost, best = cost, k
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("mapping: task %d runnable nowhere", t)
		}
		assign[t] = best
		placed[t] = true
	}

	// Improvement: steepest-descent single moves and adjacent-pair
	// swaps, evaluated with incremental deltas so the phase stays
	// O(rounds * (n*npe + m)) and scales to ~500-task graphs.
	//
	// localCost(t, k) = computation energy of t on k plus the full
	// communication energy of every arc incident to t (with all other
	// tasks at their current placement).
	localCost := func(t ctg.TaskID, k int) float64 {
		cost := g.Task(t).Energy[k]
		for _, eid := range g.In(t) {
			e := g.Edge(eid)
			cost += acg.CommEnergy(e.Volume, assign[e.Src], k)
		}
		for _, eid := range g.Out(t) {
			e := g.Edge(eid)
			cost += acg.CommEnergy(e.Volume, k, assign[e.Dst])
		}
		return cost
	}
	for round := 0; round < opts.MaxSwapRounds; round++ {
		improved := false
		// Single-task moves: the objective change of moving t from
		// its PE to k is localCost(t,k) - localCost(t,cur) because
		// only t's own computation term and incident arcs change.
		for i := 0; i < n; i++ {
			t := ctg.TaskID(i)
			task := g.Task(t)
			curCost := localCost(t, assign[i])
			bestK, bestCost := assign[i], curCost
			for k := 0; k < npe; k++ {
				if k == assign[i] || !task.RunnableOn(k) {
					continue
				}
				if c := localCost(t, k); c < bestCost {
					bestCost, bestK = c, k
				}
			}
			if bestK != assign[i] {
				assign[i] = bestK
				improved = true
			}
		}
		// Pairwise swaps between communicating tasks (the pairs whose
		// joint move single-task descent cannot evaluate). The delta
		// is computed exactly by temporarily applying the swap; only
		// arcs incident to the pair change, and arcs between the two
		// are counted once on each side, identically before and
		// after, so the comparison is exact.
		for _, e := range g.Edges() {
			i, j := e.Src, e.Dst
			if assign[i] == assign[j] {
				continue
			}
			ti, tj := g.Task(i), g.Task(j)
			if !ti.RunnableOn(assign[j]) || !tj.RunnableOn(assign[i]) {
				continue
			}
			before := localCost(i, assign[i]) + localCost(j, assign[j])
			assign[i], assign[j] = assign[j], assign[i]
			after := localCost(i, assign[i]) + localCost(j, assign[j])
			if after < before-1e-12 {
				improved = true
			} else {
				assign[i], assign[j] = assign[j], assign[i]
			}
		}
		if !improved {
			break
		}
	}
	// Final objective value.
	cur := 0.0
	for i := 0; i < n; i++ {
		cur += g.Task(ctg.TaskID(i)).Energy[assign[i]]
	}
	for _, e := range g.Edges() {
		cur += acg.CommEnergy(e.Volume, assign[e.Src], assign[e.Dst])
	}

	s, err := listScheduleFixed(g, acg, assign)
	if err != nil {
		return nil, err
	}
	s.Elapsed = time.Since(started)
	return &Result{Assign: assign, MappingEnergy: cur, Schedule: s}, nil
}

// listScheduleFixed derives start times for a fixed assignment: ready
// tasks are committed in ascending data-ready order onto their mapped
// PE, with the exact Fig. 3 communication placement.
func listScheduleFixed(g *ctg.Graph, acg *energy.ACG, assign []int) (*sched.Schedule, error) {
	return new(sched.Builder).ListSchedule(g, acg, "map+ls", nil, true,
		func(b *sched.Builder, _ *sched.Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
			// Earliest max-predecessor-finish first keeps the derived
			// order close to the dataflow; ties to the lower task ID.
			best, bestKey := rtl[0], int64(math.MaxInt64)
			for _, t := range rtl {
				key := int64(0)
				for _, eid := range g.In(t) {
					key = max(key, b.TaskPlacement(g.Edge(eid).Src).Finish)
				}
				if key < bestKey {
					best, bestKey = t, key
				}
			}
			return best, assign[best], nil
		})
}
