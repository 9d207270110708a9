package eas

import (
	"fmt"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
)

// RepairStats reports what Step 3 did.
type RepairStats struct {
	// Ran is true when the procedure executed (the input had misses).
	Ran bool
	// SwapsAccepted / MigrationsAccepted count accepted LTS / GTM moves.
	SwapsAccepted      int
	MigrationsAccepted int
	// MovesTried counts all attempted moves, accepted or not;
	// MovesAbandoned counts the rejected ones whose rebuild stopped
	// early, once its committed prefix could no longer improve.
	MovesTried     int
	MovesAbandoned int
	// InitialMisses / FinalMisses are deadline-miss counts before and
	// after.
	InitialMisses int
	FinalMisses   int
}

// layout is the degree of freedom search-and-repair manipulates: which
// PE each task runs on and in which order each PE executes its tasks.
// Timing is derived from a layout by rebuild.
type layout struct {
	assign []int
	order  [][]ctg.TaskID
}

func layoutOf(s *sched.Schedule) *layout {
	l := &layout{
		assign: make([]int, s.Graph.NumTasks()),
		order:  s.PEOrder(),
	}
	for i := range s.Tasks {
		l.assign[i] = s.Tasks[i].PE
	}
	return l
}

func (l *layout) clone() *layout {
	cp := &layout{
		assign: append([]int(nil), l.assign...),
		order:  make([][]ctg.TaskID, len(l.order)),
	}
	for i := range l.order {
		cp.order[i] = append([]ctg.TaskID(nil), l.order[i]...)
	}
	return cp
}

// rebuild resets b and re-times a layout on it with Builder.CommitOrder:
// tasks keep their PE and per-PE order, incoming transactions are placed
// by the Fig. 3 communication scheduler. Reset gives each finished
// schedule its own shell, so one builder serves a whole search. With a non-nil bound the rebuild fails with
// sched.ErrStopped once the committed prefix's metric is no longer
// better than *bound.
func rebuild(b *sched.Builder, l *layout, naive bool, bound *metric) (*sched.Schedule, error) {
	b.Reset(b.Graph(), b.ACG())
	b.SetContentionAware(!naive)
	var stop func(ctg.TaskID) bool
	if bound != nil {
		c := cutoff{b: b, bound: *bound}
		stop = c.stop
	}
	if err := b.CommitOrder(l.order, nil, stop); err != nil {
		return nil, err
	}
	return b.Finish()
}

// cutoff tracks the metric of a rebuild's committed prefix. Committed
// placements are final, so the prefix's misses, and at equal misses its
// lateness, only grow: once the prefix is no longer better than bound,
// neither is the finished candidate, and abandoning it is exact.
type cutoff struct {
	b              *sched.Builder
	bound, partial metric
}

// stop is the CommitOrder callback: it folds in committed task t.
func (c *cutoff) stop(t ctg.TaskID) bool {
	c.partial.add(c.b.Graph().Task(t), c.b.TaskPlacement(t).Finish)
	return !c.partial.better(c.bound)
}

// AbandonWorse returns a Builder.CommitOrder stop callback for candidates
// accepted on MetricBetter: it ends the rebuild once everything b has
// committed, tasks committed before the call included, is strictly
// worse than incumbent, which no completion can undo.
func AbandonWorse(b *sched.Builder, incumbent *sched.Schedule) func(ctg.TaskID) bool {
	c := &cutoff{b: b, bound: worseThan(metricOf(incumbent))}
	for i := 0; i < b.Graph().NumTasks(); i++ {
		if t := ctg.TaskID(i); b.Placed(t) {
			c.partial.add(b.Graph().Task(t), b.TaskPlacement(t).Finish)
		}
	}
	return c.stop
}

// metric is the lexicographic objective search-and-repair minimizes:
// deadline-miss count first, total lateness second. Every accepted move
// strictly decreases it, so the procedure converges (the paper: "because
// of the greedy nature of this algorithm, the search and repair
// procedure will always converge").
type metric struct {
	misses   int
	lateness int64
}

func metricOf(s *sched.Schedule) metric {
	var m metric
	for i := range s.Tasks {
		m.add(s.Graph.Task(s.Tasks[i].Task), s.Tasks[i].Finish)
	}
	return m
}

// add accounts for task t finishing at finish.
func (m *metric) add(t *ctg.Task, finish int64) {
	if t.HasDeadline() && finish > t.Deadline {
		m.misses++
		m.lateness += finish - t.Deadline
	}
}

func (m metric) better(o metric) bool {
	if m.misses != o.misses {
		return m.misses < o.misses
	}
	return m.lateness < o.lateness
}

// worseThan is the least metric strictly worse than m (lateness is an
// integer), so "not better than worseThan(m)" means "strictly worse than
// m" — the cutoff bound of acceptance rules that admit an equal metric.
func worseThan(m metric) metric { return metric{m.misses, m.lateness + 1} }

// criticalTasks returns the tasks that miss their own deadline plus all
// their ancestors, in descending-lateness-then-start order of usefulness
// for repair (latest offenders first). Per the paper, a critical task
// "may not necessarily have a specified deadline, but it causes one of
// its descendant tasks to miss its deadline".
func criticalTasks(s *sched.Schedule) []ctg.TaskID {
	g := s.Graph
	critical := make([]bool, g.NumTasks())
	var frontier []ctg.TaskID
	for i := range s.Tasks {
		t := g.Task(s.Tasks[i].Task)
		if t.HasDeadline() && s.Tasks[i].Finish > t.Deadline {
			critical[i] = true
			frontier = append(frontier, ctg.TaskID(i))
		}
	}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, p := range g.Pred(cur) {
			if !critical[p] {
				critical[p] = true
				frontier = append(frontier, p)
			}
		}
	}
	var out []ctg.TaskID
	for i, c := range critical {
		if c {
			out = append(out, ctg.TaskID(i))
		}
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := s.Tasks[out[a]].Start, s.Tasks[out[b]].Start
		if sa != sb {
			return sa > sb // latest-starting critical tasks first
		}
		return out[a] < out[b]
	})
	return out
}

// Search-bound defaults. Each attempted move re-times the layout up to
// the commit that proves it rejected, so the neighborhood is kept local:
// a critical task only tries swapping past its few nearest earlier
// neighbors, and only the most critical tasks are considered per round.
const (
	// DefaultRepairBudget caps attempted moves per Repair call.
	DefaultRepairBudget = 4000
	// ltsLookback is how many earlier same-PE tasks an LTS swap may
	// jump over.
	ltsLookback = 8
	// gtmCandidates is how many critical tasks a GTM round considers.
	gtmCandidates = 48
)

// Repair runs the paper's Step 3 (Fig. 4) on a schedule with deadline
// misses: alternate Local Task Swapping passes (energy-neutral
// reordering on a single PE) with single Global Task Migration moves
// (reassigning a critical task to another PE, destinations in increasing
// energy order) until no misses remain, no move helps, or the attempt
// budget is exhausted. moveBudget caps attempted moves (0 selects
// DefaultRepairBudget).
func Repair(s *sched.Schedule, moveBudget int, naive bool) (*sched.Schedule, RepairStats, error) {
	return repair(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), s, moveBudget, naive)
}

// repair is Repair with every candidate rebuilt on b, a builder for s's
// graph, ACG and algorithm. Reset leaves its rebuilds unmetered.
func repair(b *sched.Builder, s *sched.Schedule, moveBudget int, naive bool) (*sched.Schedule, RepairStats, error) {
	stats := RepairStats{InitialMisses: len(s.DeadlineMisses())}
	if stats.InitialMisses == 0 {
		stats.FinalMisses = 0
		return s, stats, nil
	}
	stats.Ran = true
	g, acg := s.Graph, s.ACG

	// The search space is layouts evaluated under rebuild's timing
	// discipline (strict per-PE order). rebuild of the input layout is
	// the search baseline — candidates must be compared against it,
	// not against the original gap-filled schedule, or systematic
	// timing differences would mask genuine improvements. The best
	// schedule seen overall (original included) is what we return.
	cur := layoutOf(s)
	curSched, err := rebuild(b, cur, naive, nil)
	if err != nil {
		return s, stats, nil // cannot even reconstruct: keep the input
	}
	curMetric := metricOf(curSched)
	bestSched, bestMetric := s, metricOf(s)
	if curMetric.better(bestMetric) {
		bestSched, bestMetric = curSched, curMetric
	}
	if moveBudget <= 0 {
		moveBudget = DefaultRepairBudget
	}

	// try evaluates a candidate layout; on improvement it becomes the
	// current solution.
	try := func(cand *layout) bool {
		stats.MovesTried++
		candSched, err := rebuild(b, cand, naive, &curMetric)
		if err != nil {
			if err == sched.ErrStopped {
				stats.MovesAbandoned++
			}
			return false // no improvement, ordering cycle or infeasible: reject
		}
		if m := metricOf(candSched); m.better(curMetric) {
			cur, curSched, curMetric = cand, candSched, m
			if m.better(bestMetric) {
				bestSched, bestMetric = candSched, m
			}
			return true
		}
		return false
	}
	budgetLeft := func() bool { return stats.MovesTried < moveBudget }

	for curMetric.misses > 0 && budgetLeft() {
		// --- Local task swapping to a fixpoint ---------------------
		for budgetLeft() {
			improved := false
			crit := criticalTasks(curSched)
			isCritical := make(map[ctg.TaskID]bool, len(crit))
			for _, t := range crit {
				isCritical[t] = true
			}
		swapSearch:
			for _, t1 := range crit {
				pe := cur.assign[t1]
				idx1 := indexOf(cur.order[pe], t1)
				// Swap t1 with earlier non-critical tasks on the same
				// PE so the critical task executes sooner.
				lo := idx1 - ltsLookback
				if lo < 0 {
					lo = 0
				}
				for idx2 := idx1 - 1; idx2 >= lo; idx2-- {
					t2 := cur.order[pe][idx2]
					if isCritical[t2] {
						continue
					}
					if !budgetLeft() {
						break swapSearch
					}
					cand := cur.clone()
					cand.order[pe][idx1], cand.order[pe][idx2] =
						cand.order[pe][idx2], cand.order[pe][idx1]
					if try(cand) {
						stats.SwapsAccepted++
						improved = true
						break swapSearch
					}
				}
			}
			if !improved {
				break
			}
		}
		if curMetric.misses == 0 || !budgetLeft() {
			break
		}

		// --- One global task migration -----------------------------
		// First the paper's move: migrate a critical task itself,
		// destinations in increasing energy order. If no critical
		// task can move profitably, unload the critical tasks'
		// PEs instead: migrate the non-critical tasks scheduled
		// before them (they are what delays the critical work).
		migrated := false
		crit := criticalTasks(curSched)
		if len(crit) > gtmCandidates {
			crit = crit[:gtmCandidates]
		}
		tryMigrate := func(t1 ctg.TaskID) bool {
			task := g.Task(t1)
			srcPE := cur.assign[t1]
			for _, dstPE := range PEsByEnergy(g, acg, cur.assign, t1, nil) {
				if dstPE == srcPE || !task.RunnableOn(dstPE) {
					continue
				}
				if !budgetLeft() {
					return false
				}
				cand := cur.clone()
				migrate(cand, curSched, t1, srcPE, dstPE)
				if try(cand) {
					stats.MigrationsAccepted++
					return true
				}
			}
			return false
		}
	migrationSearch:
		for _, t1 := range crit {
			if tryMigrate(t1) {
				migrated = true
				break migrationSearch
			}
			if !budgetLeft() {
				break migrationSearch
			}
		}
		if !migrated && budgetLeft() {
			isCritical := make(map[ctg.TaskID]bool, len(crit))
			for _, t := range criticalTasks(curSched) {
				isCritical[t] = true
			}
		unloadSearch:
			for _, t1 := range crit {
				pe := cur.assign[t1]
				idx1 := indexOf(cur.order[pe], t1)
				lo := idx1 - ltsLookback
				if lo < 0 {
					lo = 0
				}
				for idx2 := idx1 - 1; idx2 >= lo; idx2-- {
					t2 := cur.order[pe][idx2]
					if isCritical[t2] {
						continue
					}
					if tryMigrate(t2) {
						migrated = true
						break unloadSearch
					}
					if !budgetLeft() {
						break unloadSearch
					}
				}
			}
		}
		if !migrated {
			break // nothing helps: output the best schedule found
		}
	}

	stats.FinalMisses = bestMetric.misses
	return bestSched, stats, nil
}

// PEsByEnergy orders the PEs task t can run on by increasing
// execution-plus-communication energy under assign (ties to the lower
// PE), the order the paper prescribes for GTM ("the destination PEs are
// tried in the increasing order of the execution and communication
// energy"). PEs marked in dead (nil: none) are skipped, and so is the
// communication with neighbors assigned to them.
func PEsByEnergy(g *ctg.Graph, acg *energy.ACG, assign []int, t ctg.TaskID, dead []bool) []int {
	alive := func(k int) bool { return dead == nil || !dead[k] }
	task := g.Task(t)
	type cand struct {
		pe   int
		cost float64
	}
	var cands []cand
	for k := 0; k < acg.NumPEs(); k++ {
		if !alive(k) || !task.RunnableOn(k) {
			continue
		}
		cost := task.Energy[k]
		for _, eid := range g.In(t) {
			if e := g.Edge(eid); alive(assign[e.Src]) {
				cost += acg.CommEnergy(e.Volume, assign[e.Src], k)
			}
		}
		for _, eid := range g.Out(t) {
			if e := g.Edge(eid); alive(assign[e.Dst]) {
				cost += acg.CommEnergy(e.Volume, k, assign[e.Dst])
			}
		}
		cands = append(cands, cand{pe: k, cost: cost})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].pe < cands[j].pe
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.pe
	}
	return out
}

// migrate moves task t from srcPE to dstPE in the layout, inserting it
// into the destination order at the position matching its current start
// time so the local execution order stays plausible.
func migrate(l *layout, s *sched.Schedule, t ctg.TaskID, srcPE, dstPE int) {
	idx := indexOf(l.order[srcPE], t)
	l.order[srcPE] = append(l.order[srcPE][:idx], l.order[srcPE][idx+1:]...)
	start := s.Tasks[t].Start
	insert := len(l.order[dstPE])
	for i, other := range l.order[dstPE] {
		if s.Tasks[other].Start > start {
			insert = i
			break
		}
	}
	l.order[dstPE] = append(l.order[dstPE], 0)
	copy(l.order[dstPE][insert+1:], l.order[dstPE][insert:])
	l.order[dstPE][insert] = t
	l.assign[t] = dstPE
}

func indexOf(order []ctg.TaskID, t ctg.TaskID) int {
	for i, o := range order {
		if o == t {
			return i
		}
	}
	panic(fmt.Sprintf("eas: task %d missing from its PE order", t))
}
