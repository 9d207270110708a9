package eas

import (
	"fmt"
	"math"

	"nocsched/internal/ctg"
)

// referenceBudget is the whole-graph Step 1 that ComputeBudget's flat
// passes replaced, kept with its arithmetic unchanged as the
// differential oracle: per deadline task, one reverse pass over every
// task, on freshly allocated per-task arrays. It predates the
// rejection of infinite weights and of non-finite weight shares.
func referenceBudget(g *ctg.Graph, weight WeightFunc, scale float64, commBandwidth int64) (*Budget, error) {
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
				continue
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
				slack = 0
			}
			totalW := fwdW[t] + bwdW[t] - b.Weight[t]
			var share float64
			switch {
			case totalW > 0:
				share = slack * fwdW[t] / totalW
			case pathLen > 0:
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
// run it.
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
