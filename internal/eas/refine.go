package eas

import (
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/sched"
)

// RefineStats reports what the energy-refinement pass did.
type RefineStats struct {
	MovesTried    int
	MovesAccepted int
	// MovesAbandoned counts rejected moves whose rebuild stopped early,
	// once its committed prefix was already worse than the incumbent.
	MovesAbandoned int
	EnergyBefore   float64
	EnergyAfter    float64
}

// DefaultRefineBudget caps attempted refinement moves.
const DefaultRefineBudget = 2500

// RefineEnergy greedily lowers the energy of a schedule without
// sacrificing its deadline behavior: tasks are migrated one at a time to
// cheaper PEs (cheapest candidate first), each candidate evaluated by
// re-timing its layout, and a move is kept only when the (miss-count,
// lateness) metric does not degrade and the total energy strictly drops.
//
// It is the dual of search-and-repair: repair trades energy for
// feasibility, refinement trades (excess) speed for energy. The EAS
// driver uses it on its feasibility fallback pass, which starts from a
// deadline-ordered schedule that tends to over-use fast, hungry PEs.
func RefineEnergy(s *sched.Schedule, moveBudget int, naive bool) (*sched.Schedule, RefineStats, error) {
	return refine(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), s, moveBudget, naive)
}

// refine is RefineEnergy with every candidate rebuilt on b, a builder for
// s's graph, ACG and algorithm. Reset leaves its rebuilds unmetered.
func refine(b *sched.Builder, s *sched.Schedule, moveBudget int, naive bool) (*sched.Schedule, RefineStats, error) {
	stats := RefineStats{EnergyBefore: s.TotalEnergy(), EnergyAfter: s.TotalEnergy()}
	if moveBudget <= 0 {
		moveBudget = DefaultRefineBudget
	}
	g := s.Graph

	cur := layoutOf(s)
	curSched, err := rebuild(b, cur, naive, nil)
	if err != nil {
		return s, stats, nil
	}
	curMetric := metricOf(curSched)
	curEnergy := curSched.TotalEnergy()
	// Never degrade the input's deadline behavior.
	if in := metricOf(s); in.better(curMetric) {
		return s, stats, nil
	}

	type move struct {
		task ctg.TaskID
		dst  int
		gain float64 // optimistic computation-energy gain
	}
	for {
		// Candidate moves, most promising first. The gain estimate is
		// the computation-energy delta; communication effects are
		// captured by the rebuild evaluation.
		var moves []move
		for i := 0; i < g.NumTasks(); i++ {
			t := ctg.TaskID(i)
			task := g.Task(t)
			curPE := cur.assign[t]
			for k := range task.ExecTime {
				if k == curPE || !task.RunnableOn(k) {
					continue
				}
				if gain := task.Energy[curPE] - task.Energy[k]; gain > 0 {
					moves = append(moves, move{task: t, dst: k, gain: gain})
				}
			}
		}
		sort.Slice(moves, func(a, b int) bool {
			if moves[a].gain != moves[b].gain {
				return moves[a].gain > moves[b].gain
			}
			if moves[a].task != moves[b].task {
				return moves[a].task < moves[b].task
			}
			return moves[a].dst < moves[b].dst
		})

		improved := false
		for _, mv := range moves {
			if stats.MovesTried >= moveBudget {
				break
			}
			stats.MovesTried++
			cand := cur.clone()
			migrate(cand, curSched, mv.task, cand.assign[mv.task], mv.dst)
			bound := worseThan(curMetric)
			candSched, err := rebuild(b, cand, naive, &bound)
			if err != nil {
				if err == sched.ErrStopped {
					stats.MovesAbandoned++
				}
				continue
			}
			m := metricOf(candSched)
			e := candSched.TotalEnergy()
			if (m.better(curMetric) && e <= curEnergy) ||
				(m == curMetric && e < curEnergy) {
				cur, curSched, curMetric, curEnergy = cand, candSched, m, e
				stats.MovesAccepted++
				improved = true
				break // re-rank moves against the new placement
			}
		}
		if !improved || stats.MovesTried >= moveBudget {
			break
		}
	}

	// Return whichever of {input, refined} wins on (metric, energy).
	inMetric, inEnergy := metricOf(s), s.TotalEnergy()
	if curMetric.better(inMetric) || (curMetric == inMetric && curEnergy < inEnergy) {
		stats.EnergyAfter = curEnergy
		return curSched, stats, nil
	}
	return s, stats, nil
}
