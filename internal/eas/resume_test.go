package eas

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
)

// checker is a retimer that times every candidate twice, with the
// evaluator and with the from-scratch reference on a builder of its
// own, hands on the evaluator's answer and fails tb on any difference:
// the schedule (sched.Diff) and the error, the divergence step against
// the first index at which the reference's commits leave the
// incumbent's, and the work counts against the reference's commits.
type checker struct {
	tb         testing.TB
	name       string
	ev         *evaluator
	ref        *rebuilder
	candidates int
	// inc is the incumbent schedule, refTrace the reference's last run.
	inc      *sched.Schedule
	refTrace sched.OrderTrace
}

func newChecker(tb testing.TB, name string, s *sched.Schedule, naive bool) *checker {
	return &checker{tb: tb, name: name,
		ev:  newEvaluator(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), naive),
		ref: newRebuilder(s, naive)}
}

func (c *checker) start(l *layout) (*sched.Schedule, error) {
	got, err := c.ev.start(l)
	want, werr := c.ref.start(l)
	c.compare("start", got, err, want, werr)
	c.inc = got
	return got, err
}

func (c *checker) retime(a, pe2 int, bound metric) (*sched.Schedule, error) {
	c.tb.Helper()
	c.candidates++
	at := fmt.Sprintf("candidate %d (PEs %d,%d)", c.candidates, a, pe2)
	inc := slices.Clone(c.ev.trace.Seq())
	changed := []int{a}
	if pe2 >= 0 {
		changed = append(changed, pe2)
	}
	d := c.ev.trace.Divergence(c.ev.l.order, changed)
	placed, reused := c.ev.work()
	got, err := c.ev.retime(a, pe2, bound)
	want, werr := c.ref.retime(a, pe2, bound)
	c.compare(at, got, err, want, werr)

	// A commit is a task and its PE: a migrated task may commit at the
	// same step on its new PE.
	c.refTrace.Record(c.ref.b)
	refLog := c.refTrace.Seq()
	first := 0
	for first < len(refLog) && first < len(inc) && refLog[first] == inc[first] &&
		c.ref.b.TaskPlacement(refLog[first]).PE == c.inc.Tasks[inc[first]].PE {
		first++
	}
	if first != d {
		c.tb.Fatalf("%s: %s: divergence step %d, but the reference's %d commits leave the incumbent's at %d",
			c.name, at, d, len(refLog), first)
	}
	p, r := c.ev.work()
	if n := p - placed + r - reused; n != len(refLog) {
		c.tb.Fatalf("%s: %s: %d placed + %d reused commits, the reference made %d",
			c.name, at, p-placed, r-reused, len(refLog))
	}
	return got, err
}

func (c *checker) accept() *sched.Schedule {
	got, want := c.ev.accept(), c.ref.accept()
	c.compare("accept", got, nil, want, nil)
	c.inc = got
	return got
}

func (c *checker) work() (placed, reused int) { return c.ev.work() }

func (c *checker) compare(at string, got *sched.Schedule, err error, want *sched.Schedule, werr error) {
	c.tb.Helper()
	switch {
	case (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()):
		c.tb.Fatalf("%s: %s: error %v, reference %v", c.name, at, err, werr)
	case err == nil:
		if d := sched.Diff(want, got); d != "" {
			c.tb.Fatalf("%s: %s: resumed schedule diverges from the rebuilt one:\n%s", c.name, at, d)
		}
	}
}

// checkSearches runs repair and refine from s twice: through a checker,
// which holds every candidate to the reference, and with the reference
// alone. The searches must end in the same schedule with the same
// stats, and the checked search's placed plus reused commits must
// equal the commits the reference placed. It returns the number of
// candidates checked.
func checkSearches(tb testing.TB, name string, s *sched.Schedule, naive bool) int {
	tb.Helper()
	candidates := 0
	for _, search := range []struct {
		name string
		run  func(retimer) (*sched.Schedule, any, [2]int, error)
	}{
		{"repair", func(r retimer) (*sched.Schedule, any, [2]int, error) {
			out, st, err := repair(r, s, 0)
			work := [2]int{st.CommitsPlaced, st.CommitsReused}
			st.CommitsPlaced, st.CommitsReused = 0, 0
			return out, st, work, err
		}},
		{"refine", func(r retimer) (*sched.Schedule, any, [2]int, error) {
			out, st, err := refine(r, s, 0)
			work := [2]int{st.CommitsPlaced, st.CommitsReused}
			st.CommitsPlaced, st.CommitsReused = 0, 0
			return out, st, work, err
		}},
	} {
		at := name + "/" + search.name
		c := newChecker(tb, at, s, naive)
		got, gotStats, gotWork, err := search.run(c)
		if err != nil {
			tb.Fatalf("%s: %v", at, err)
		}
		want, wantStats, wantWork, _ := search.run(newRebuilder(s, naive))
		if d := sched.Diff(want, got); d != "" {
			tb.Fatalf("%s: searched schedule diverges from the reference search's:\n%s", at, d)
		}
		if gotStats != wantStats {
			tb.Fatalf("%s: stats %+v, reference %+v", at, gotStats, wantStats)
		}
		if gotWork[0]+gotWork[1] != wantWork[0] || wantWork[1] != 0 {
			tb.Fatalf("%s: %d placed + %d reused commits, the reference placed %d and reused %d",
				at, gotWork[0], gotWork[1], wantWork[0], wantWork[1])
		}
		candidates += c.candidates
	}
	return candidates
}

// TestRepairResumeDifferential is the exactness oracle of Step 3's
// resumed re-timing. Over every candidate that repair and refine try on
// tightCases and on Category I and II graphs at laxities 0.8 to 1.0,
// under the exact contention model (and the naive one on tightCases;
// FuzzRepairResume covers both everywhere), the evaluator
// must return what a from-scratch rebuild returns, schedule and error,
// and its divergence step and work counts must match the rebuild's
// commits; both searches must end identically.
func TestRepairResumeDifferential(t *testing.T) {
	type instance struct {
		name string
		s    *sched.Schedule
	}
	var cases []instance
	for _, tc := range tightCases(t, 10) {
		cases = append(cases, instance{tc.name, tc.s})
	}
	for _, cat := range []tgff.Category{tgff.CategoryI, tgff.CategoryII} {
		for _, lax := range []float64{0.8, 0.9, 1.0} {
			gs, acg := shapeGraphs(t, cat, 40, lax, 2)
			for i, g := range gs {
				cases = append(cases, instance{fmt.Sprintf("%s-lax%.1f-%d", cat, lax, i), stepTwo(t, g, acg)})
			}
		}
	}
	var candidates, missing int
	for i, tc := range cases {
		if !tc.s.Feasible() {
			missing++
		}
		candidates += checkSearches(t, tc.name, tc.s, false)
		if i < 10 {
			candidates += checkSearches(t, tc.name+"/naive", tc.s, true)
		}
	}
	t.Logf("%d instances (%d missing after Step 2): %d candidates checked", len(cases), missing, candidates)
	if missing == 0 || candidates == 0 {
		t.Fatalf("oracle exercised %d missing instances and %d candidates; want both > 0", missing, candidates)
	}
}

// FuzzRepairResume generates small TGFF graphs on 2x2 to 4x4 meshes at
// deadline laxity 0.6 to 1.1, under the exact and the naive contention
// model, and holds every repair and refine candidate to the
// from-scratch reference (checkSearches), from both the Step 2 schedule
// and the deadline-first one the EAS fallback refines.
func FuzzRepairResume(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(2), 0.95, int64(1), false)
	f.Add(uint8(20), uint8(0), uint8(1), 0.6, int64(7), true)
	f.Add(uint8(12), uint8(1), uint8(0), 1.1, int64(3), false)
	f.Add(uint8(40), uint8(2), uint8(0), 0.8, int64(11), false)
	f.Fuzz(func(t *testing.T, tasks, w, h uint8, laxity float64, seed int64, naive bool) {
		if math.IsNaN(laxity) || laxity < 0.6 || laxity > 1.1 {
			t.Skip("laxity out of range")
		}
		platform, err := noc.NewHeterogeneousMesh(2+int(w)%3, 2+int(h)%3, noc.RouteXY, 100)
		if err != nil {
			t.Fatal(err)
		}
		acg, err := energy.BuildACG(platform, energy.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		p := tgff.SuiteParams(tgff.CategoryII, int(seed&7), platform)
		p.Seed = seed
		p.NumTasks = 2 + int(tasks)%39
		p.DeadlineLaxity = laxity
		g, err := tgff.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		res, err := Schedule(g, acg, Options{DisableRepair: true, NaiveContention: naive})
		if err != nil {
			t.Fatal(err)
		}
		checkSearches(t, "step2", res.Schedule, naive)
		fb, err := deadlineFirstSchedule(sched.NewWorkspace(1, false), g, topoOrder(t, g), acg, "eas", Options{NaiveContention: naive})
		if err != nil {
			t.Fatal(err)
		}
		checkSearches(t, "deadline-first", fb, naive)
	})
}

// TestStep3WorkCounts pins Step 3's deterministic work counts over
// twenty batch-tight-shaped instances: the moves Repair tries, the
// commits its CommitOrder searches place, and the commits it reuses
// from the incumbent, equal at GOMAXPROCS 1 and 4.
func TestStep3WorkCounts(t *testing.T) {
	cases := tightCases(t, 20)
	total := func() (tried, placed, reused int) {
		for _, tc := range cases {
			_, st, err := Repair(tc.s, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			tried += st.MovesTried
			placed += st.CommitsPlaced
			reused += st.CommitsReused
		}
		return tried, placed, reused
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tried, placed, reused := total()
	runtime.GOMAXPROCS(4)
	tried4, placed4, reused4 := total()
	t.Logf("%d moves tried, %d commits placed, %d reused", tried, placed, reused)
	if tried4 != tried || placed4 != placed || reused4 != reused {
		t.Errorf("GOMAXPROCS 4: %d moves, %d placed, %d reused; GOMAXPROCS 1: %d, %d, %d",
			tried4, placed4, reused4, tried, placed, reused)
	}
	const wantTried, wantPlaced, wantReused = 1806, 12159, 31249
	if tried != wantTried || placed != wantPlaced || reused != wantReused {
		t.Errorf("%d moves tried, %d commits placed, %d reused; pinned %d, %d, %d",
			tried, placed, reused, wantTried, wantPlaced, wantReused)
	}
}
