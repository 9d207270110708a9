package fault

import (
	"errors"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
)

// TestSuffixRepairEarlyRejectDifferential is the exactness oracle of
// suffix repair's early reject. A third into the run, a PE hosting only
// not-yet-started work dies and deadlines are tightened so misses
// appear. Along repairSuffix's own trajectory every candidate hybrid is
// rebuilt uncut on a fresh builder and with the MetricBetter cutoff on
// one reused builder. A completed cutoff rebuild must be sched.Diff-identical to
// the uncut one; an abandoned candidate must lose to the incumbent.
func TestSuffixRepairEarlyRejectDifferential(t *testing.T) {
	const maxTries = 200
	var completed, abandoned int
	for seed := int64(1); seed <= 12; seed++ {
		s := faultRig(t, seed, 30)
		t0 := s.Makespan() / 3
		dead := -1
		for pe := range s.PEOrder() {
			if order := s.PEOrder()[pe]; len(order) > 0 && s.Tasks[order[0]].Start >= t0 {
				dead = pe
				break
			}
		}
		if dead < 0 {
			continue
		}
		d, err := Degrade(s.ACG.Platform(), s.ACG.Model(), &Scenario{Name: "diff", PEs: []noc.TileID{noc.TileID(dead)}, Cycle: t0})
		if err != nil {
			t.Fatal(err)
		}
		n := s.Graph.NumTasks()
		frozen := make([]bool, n)
		assign := make([]int, n)
		for i := range frozen {
			frozen[i] = s.Tasks[i].Start < t0
			assign[i] = s.Tasks[i].PE
		}
		dg, err := degradeGraphSuffix(d, s.Graph.ScaleDeadlines(0.6), frozen)
		if err != nil {
			t.Fatal(err)
		}
		for i := range assign {
			if assign[i] == dead {
				if assign[i], err = cheapestAlivePE(dg, d, assign, ctg.TaskID(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		order := suffixOrder(s, frozen, assign, d.ACG.NumPEs())
		rebuild := func(b *sched.Builder, incumbent *sched.Schedule) (*sched.Schedule, error) {
			return rebuildSuffix(b, dg, d, s, frozen, t0, order, incumbent)
		}
		fresh := func() *sched.Builder { return sched.NewBuilder(dg, d.ACG, s.Algorithm) }
		b := fresh()
		hyb, err := rebuild(b, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for tries, improved := 0, true; improved && tries < maxTries; {
			improved = false
		search:
			for _, c := range suffixRepairCandidates(dg, hyb, frozen) {
				for _, k := range eas.PEsByEnergy(dg, d.ACG, assign, c, d.DeadPE) {
					if k == assign[c] {
						continue
					}
					if tries++; tries > maxTries {
						break search
					}
					oldPE := assign[c]
					moveTask(hyb, order, assign, c, k)
					full, ferr := rebuild(fresh(), nil)
					cut, err := rebuild(b, hyb)
					switch {
					case errors.Is(err, sched.ErrStopped):
						abandoned++
						if ferr == nil && eas.MetricBetter(full, hyb) {
							t.Fatalf("seed %d: abandoned a candidate that beats the incumbent", seed)
						}
					case err != nil:
						if ferr == nil {
							t.Fatalf("seed %d: cutoff rebuild failed where the full one did not: %v", seed, err)
						}
					case ferr != nil:
						t.Fatalf("seed %d: cutoff rebuild completed where the full one failed: %v", seed, ferr)
					default:
						completed++
						if diff := sched.Diff(full, cut); diff != "" {
							t.Fatalf("seed %d: cutoff rebuild diverges from the full one:\n%s", seed, diff)
						}
					}
					if ferr == nil && eas.MetricBetter(full, hyb) {
						hyb, improved = full, true
						break search
					}
					moveTask(hyb, order, assign, c, oldPE)
				}
			}
		}
	}
	t.Logf("%d completed and %d abandoned cutoff rebuilds", completed, abandoned)
	if completed == 0 || abandoned == 0 {
		t.Fatalf("oracle exercised %d completed and %d abandoned cutoff rebuilds; want both > 0", completed, abandoned)
	}
}
