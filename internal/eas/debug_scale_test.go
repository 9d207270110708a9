package eas

import (
	"testing"

	"nocsched/internal/energy"
	"nocsched/internal/msb"
	"nocsched/internal/sched"
)

func TestDebugScaleSweep(t *testing.T) {
	p3, _ := msb.DefaultPlatform3x3()
	acg, _ := energy.BuildACG(p3, energy.DefaultModel())
	clip, _ := msb.ClipByName("foreman")
	base, _ := msb.Integrated(clip, p3)
	g := base.ScaleDeadlines(1 / 1.8)
	for _, p := range []struct {
		scale float64
		bw    int64
	}{{1, 0}, {1, 256}, {0.5, 256}, {0, 256}} {
		budget, err := ComputeBudget(g, nil, p.scale, p.bw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := levelSchedule(sched.NewWorkspace(1, false), g, acg, budget, "eas", Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, stats, err := Repair(s, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("scale=%.1f bw=%d: level miss=%d lat=%d E=%.0f | repaired miss=%d lat=%d E=%.0f (tried %d)",
			p.scale, p.bw, len(s.DeadlineMisses()), s.MaxLateness(), s.TotalEnergy(),
			len(rep.DeadlineMisses()), rep.MaxLateness(), rep.TotalEnergy(), stats.MovesTried)
	}
}
