package sched_test

import (
	"math"
	"slices"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// TestFinishBoundDifferential brackets every probe between the two
// bounds a row scan trusts without one: drtLB + exec below, FinishBound
// above. For every ready (task, PE) of every round while EAS (Steps 1-2),
// EDF and DLS schedule workloadgen.Golden() and Corpus seeds 1-8, it
// checks drtLB + exec <= Probe().Finish <= FinishBound. Each solve's
// rounds are replayed from its commit log on a second builder, under
// both contention models; replayed under the model it ran with, the
// replay must rebuild the solve's schedule exactly.
func TestFinishBoundDifferential(t *testing.T) {
	ws, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		c, err := workloadgen.Corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, c...)
	}
	type solve func(b *sched.Builder, g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error)
	easBase := func(naive bool) solve {
		return func(b *sched.Builder, g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
			r, err := eas.ScheduleWith(b, g, acg, eas.Options{DisableRepair: true, NaiveContention: naive})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}
	}
	solvers := []struct {
		name  string
		naive bool
		run   solve
	}{
		{"eas", false, easBase(false)},
		{"eas-naive", true, easBase(true)},
		{"edf", false, func(b *sched.Builder, g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
			return edf.ScheduleWith(b, g, acg, edf.Options{})
		}},
		{"dls", false, dls.ScheduleWith},
	}
	b, replay := new(sched.Builder), new(sched.Builder)
	var checked, exact int
	for _, w := range ws {
		for _, sv := range solvers {
			s, err := sv.run(b, w.Graph, w.ACG)
			if err != nil {
				t.Fatal(err)
			}
			log := slices.Clone(b.CommitLog())
			for _, naive := range []bool{false, true} {
				replay.Reset(w.Graph, w.ACG)
				replay.SetContentionAware(!naive)
				pr := replay.NewProber()
				for _, next := range log {
					for _, ti := range replay.AppendReady(nil) {
						task := w.Graph.Task(ti)
						row := pr.Row(ti, sched.RowByCost, func(k int, _ int64, comm float64) float64 {
							return task.Energy[k] + comm
						})
						for _, k32 := range row.Order {
							k := int(k32)
							p, err := pr.Probe(ti, k)
							if err != nil {
								t.Fatal(err)
							}
							lb, ub := row.DRTBound(k)+task.ExecTime[k], pr.FinishBound(ti, k)
							if lb > p.Finish || p.Finish > ub || ub == math.MaxInt64 {
								t.Fatalf("%s, %s replayed naive=%v, task %d on PE %d after %d commits: lower bound %d, finish %d, upper bound %d",
									w.Name, sv.name, naive, ti, k, replay.Committed(), lb, p.Finish, ub)
							}
							checked++
							if ub == p.Finish {
								exact++
							}
						}
					}
					if _, err := replay.Commit(next, s.Tasks[next].PE); err != nil {
						t.Fatal(err)
					}
				}
				got, err := replay.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if naive == sv.naive {
					if d := sched.Diff(s, got); d != "" {
						t.Fatalf("%s, %s: replay of the commit log: %s", w.Name, sv.name, d)
					}
				}
			}
		}
	}
	if exact == 0 || exact == checked {
		t.Fatalf("the bound met the finish on %d of %d probes: the oracle must see both", exact, checked)
	}
	t.Logf("%d probes bracketed, the bound exact on %d", checked, exact)
}
