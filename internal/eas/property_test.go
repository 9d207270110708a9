package eas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocsched/internal/ctg"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
)

// randomInstance builds a small random problem and an intentionally
// arbitrary (often bad) initial schedule by committing tasks to random
// capable PEs in topological order.
func randomInstance(t *testing.T, seed int64) *sched.Schedule {
	t.Helper()
	acg := rig2x2(t)
	rng := rand.New(rand.NewSource(seed))
	g, err := tgff.Generate(tgff.Params{
		Name:                "prop",
		Seed:                seed,
		NumTasks:            8 + rng.Intn(25),
		MaxInDegree:         1 + rng.Intn(3),
		LocalityWindow:      6,
		TaskTypes:           4,
		ExecMin:             10,
		ExecMax:             150,
		HeteroSpread:        0.5,
		VolumeMin:           128,
		VolumeMax:           4096,
		ControlEdgeFraction: 0.2,
		DeadlineLaxity:      0.7 + rng.Float64(),
		DeadlineFraction:    1,
		Platform:            acg.Platform(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sched.NewBuilder(g, acg, "eas")
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		task := g.Task(id)
		var pes []int
		for k := range task.ExecTime {
			if task.RunnableOn(k) {
				pes = append(pes, k)
			}
		}
		if _, err := b.Commit(id, pes[rng.Intn(len(pes))]); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickRepairInvariants: starting from arbitrary random schedules,
// repair must always return a valid schedule that is no worse on the
// (misses, lateness) metric.
func TestQuickRepairInvariants(t *testing.T) {
	f := func(seed int64) bool {
		s := randomInstance(t, seed)
		before := metricOf(s)
		repaired, stats, err := Repair(s, 400, false)
		if err != nil {
			return false
		}
		if err := repaired.Validate(); err != nil {
			t.Logf("seed %d: invalid repaired schedule: %v", seed, err)
			return false
		}
		after := metricOf(repaired)
		if after.misses > before.misses {
			t.Logf("seed %d: misses %d -> %d", seed, before.misses, after.misses)
			return false
		}
		if after.misses == before.misses && after.lateness > before.lateness {
			t.Logf("seed %d: lateness worsened", seed)
			return false
		}
		_ = stats
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRefineInvariants: refinement must never raise energy and
// never degrade the deadline metric, and always returns a valid
// schedule.
func TestQuickRefineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		s := randomInstance(t, seed)
		before := metricOf(s)
		beforeE := s.TotalEnergy()
		refined, _, err := RefineEnergy(s, 300, false)
		if err != nil {
			return false
		}
		if err := refined.Validate(); err != nil {
			t.Logf("seed %d: invalid refined schedule: %v", seed, err)
			return false
		}
		after := metricOf(refined)
		if after.misses > before.misses ||
			(after.misses == before.misses && after.lateness > before.lateness) {
			t.Logf("seed %d: metric degraded %+v -> %+v", seed, before, after)
			return false
		}
		if refined.TotalEnergy() > beforeE+1e-9 {
			t.Logf("seed %d: energy raised %.1f -> %.1f", seed, beforeE, refined.TotalEnergy())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBudgetMonotoneInScale: shrinking the slack scale never
// loosens any budgeted deadline.
func TestQuickBudgetMonotoneInScale(t *testing.T) {
	acg := rig2x2(t)
	f := func(seed int64, a, b uint8) bool {
		s1 := float64(a%101) / 100
		s2 := float64(b%101) / 100
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		g, err := tgff.Generate(tgff.Params{
			Name: "mono", Seed: seed, NumTasks: 20, MaxInDegree: 2,
			LocalityWindow: 6, TaskTypes: 4, ExecMin: 10, ExecMax: 100,
			HeteroSpread: 0.5, VolumeMin: 128, VolumeMax: 1024,
			ControlEdgeFraction: 0.2, DeadlineLaxity: 1.5, DeadlineFraction: 1,
			Platform: acg.Platform(),
		})
		if err != nil {
			return false
		}
		lo, err := ComputeBudget(g, nil, s1, 0)
		if err != nil {
			return false
		}
		hi, err := ComputeBudget(g, nil, s2, 0)
		if err != nil {
			return false
		}
		for i := range lo.BD {
			if lo.BD[i] == ctg.NoDeadline || hi.BD[i] == ctg.NoDeadline {
				if lo.BD[i] != hi.BD[i] {
					return false // constrainedness must not depend on scale
				}
				continue
			}
			if lo.BD[i] > hi.BD[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
