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
	// MovesAbandoned counts rejected moves whose re-timing stopped
	// early, once its committed prefix was already worse than the
	// incumbent.
	MovesAbandoned int
	EnergyBefore   float64
	EnergyAfter    float64
	// CommitsPlaced and CommitsReused split the re-timing work as
	// RepairStats does.
	CommitsPlaced int
	CommitsReused int
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
	return refine(newEvaluator(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), naive), s, moveBudget)
}

// refine is RefineEnergy with every candidate timed by r.
func refine(r retimer, s *sched.Schedule, moveBudget int) (*sched.Schedule, RefineStats, error) {
	stats := RefineStats{EnergyBefore: s.TotalEnergy(), EnergyAfter: s.TotalEnergy()}
	if moveBudget <= 0 {
		moveBudget = DefaultRefineBudget
	}
	g := s.Graph

	cur := layoutOf(s)
	curSched, err := r.start(cur)
	if err != nil {
		stats.CommitsPlaced, stats.CommitsReused = r.work()
		return s, stats, nil
	}
	curMetric := metricOf(curSched)
	curEnergy := curSched.TotalEnergy()
	// Never degrade the input's deadline behavior.
	if in := metricOf(s); in.better(curMetric) {
		stats.CommitsPlaced, stats.CommitsReused = r.work()
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
		// captured by re-timing.
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
			src := cur.assign[mv.task]
			from, to := cur.migrate(curSched, mv.task, src, mv.dst)
			candSched, err := r.retime(src, mv.dst, worseThan(curMetric))
			if err == nil {
				m := metricOf(candSched)
				e := candSched.TotalEnergy()
				if (m.better(curMetric) && e <= curEnergy) ||
					(m == curMetric && e < curEnergy) {
					curSched, curMetric, curEnergy = r.accept(), m, e
					stats.MovesAccepted++
					improved = true
					break // re-rank moves against the new placement
				}
			} else if err == sched.ErrStopped {
				stats.MovesAbandoned++
			}
			cur.unmigrate(mv.task, src, mv.dst, from, to)
		}
		if !improved || stats.MovesTried >= moveBudget {
			break
		}
	}

	// Return whichever of {input, refined} wins on (metric, energy).
	stats.CommitsPlaced, stats.CommitsReused = r.work()
	inMetric, inEnergy := metricOf(s), s.TotalEnergy()
	if curMetric.better(inMetric) || (curMetric == inMetric && curEnergy < inEnergy) {
		stats.EnergyAfter = curEnergy
		return curSched, stats, nil
	}
	return s, stats, nil
}
