package eas

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
	"nocsched/internal/verify/workloadgen"
)

// tightCase is one Step 3 instance: a graph, its platform, and the
// Step 2 (EAS-base) schedule that search-and-repair starts from.
type tightCase struct {
	name string
	s    *sched.Schedule
}

// tightCases builds n batch-tight-shaped instances: 30-task Category II
// graphs at deadline laxity 0.95 on the default 4x4 heterogeneous mesh,
// cycling through the suite's ten shapes.
func tightCases(tb testing.TB, n int) []tightCase {
	tb.Helper()
	gs, acg := shapeGraphs(tb, tgff.CategoryII, 30, 0.95, n)
	out := make([]tightCase, n)
	for i, g := range gs {
		out[i] = tightCase{fmt.Sprintf("tight-%02d", i), stepTwo(tb, g, acg)}
	}
	return out
}

// stepTwo returns the Step 2 schedule EAS hands to search-and-repair.
func stepTwo(tb testing.TB, g *ctg.Graph, acg *energy.ACG) *sched.Schedule {
	tb.Helper()
	res, err := Schedule(g, acg, Options{DisableRepair: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Schedule
}

// rebuild resets b and re-times a layout on it from scratch with one
// full Builder.CommitOrder: the reference the evaluator's resumed
// re-timing must match. Reset gives each finished schedule its own
// shell. With a non-nil bound the rebuild fails with sched.ErrStopped
// once the committed prefix's metric is no longer better than *bound.
func rebuild(b *sched.Builder, l *layout, naive bool, bound *metric) (*sched.Schedule, error) {
	b.Reset(b.Graph(), b.ACG())
	b.SetContentionAware(!naive)
	var stop func(ctg.TaskID) bool
	if bound != nil {
		c := cutoff{b: b, bound: *bound}
		stop = c.stop
	}
	if err := b.CommitOrder(l.order, stop); err != nil {
		return nil, err
	}
	return b.Finish()
}

// rebuilder is the reference retimer: every candidate rebuilt from
// scratch, every commit searched for.
type rebuilder struct {
	b      *sched.Builder
	naive  bool
	l      *layout
	last   *sched.Schedule
	placed int
}

func newRebuilder(s *sched.Schedule, naive bool) *rebuilder {
	return &rebuilder{b: sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), naive: naive}
}

func (r *rebuilder) start(l *layout) (*sched.Schedule, error) {
	r.l = l
	s, err := rebuild(r.b, l, r.naive, nil)
	r.last = s
	r.placed += r.b.Committed()
	return s, err
}

func (r *rebuilder) retime(_, _ int, bound metric) (*sched.Schedule, error) {
	s, err := rebuild(r.b, r.l, r.naive, &bound)
	r.last = s
	r.placed += r.b.Committed()
	return s, err
}

func (r *rebuilder) accept() *sched.Schedule { return r.last }

func (r *rebuilder) work() (placed, reused int) { return r.placed, 0 }

// clone returns a deep copy of l.
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

// candMove is one candidate move: a swap of queue positions i and j on
// PE pe, or, when dst >= 0, a migration of task t from PE pe to dst.
type candMove struct {
	t        ctg.TaskID
	pe, i, j int
	dst      int
}

// try applies mv to l in place, calls fn with the PEs whose queues it
// changed (c is -1 for a swap), and undoes it; s is l's schedule.
func (mv candMove) try(l *layout, s *sched.Schedule, fn func(a, c int)) {
	if mv.dst < 0 {
		l.swap(mv.pe, mv.i, mv.j)
		fn(mv.pe, -1)
		l.swap(mv.pe, mv.i, mv.j)
		return
	}
	from, to := l.migrate(s, mv.t, mv.pe, mv.dst)
	fn(mv.pe, mv.dst)
	l.unmigrate(mv.t, mv.pe, mv.dst, from, to)
}

// neighborhood returns the moves the search would try from cur:
// Repair's LTS swaps and GTM migrations of the critical tasks when
// curSched misses deadlines, otherwise RefineEnergy's migrations to
// cheaper PEs.
func neighborhood(cur *layout, curSched *sched.Schedule) []candMove {
	g, acg := curSched.Graph, curSched.ACG
	var out []candMove
	crit := criticalTasks(curSched)
	isCritical := make(map[ctg.TaskID]bool, len(crit))
	for _, t := range crit {
		isCritical[t] = true
	}
	for _, t1 := range crit {
		pe := cur.assign[t1]
		idx1 := indexOf(cur.order[pe], t1)
		for idx2 := idx1 - 1; idx2 >= max(0, idx1-ltsLookback); idx2-- {
			if !isCritical[cur.order[pe][idx2]] {
				out = append(out, candMove{t: t1, pe: pe, i: idx1, j: idx2, dst: -1})
			}
		}
	}
	movers := crit[:min(len(crit), gtmCandidates)]
	if len(crit) == 0 {
		for i := 0; i < g.NumTasks(); i++ {
			movers = append(movers, ctg.TaskID(i))
		}
	}
	for _, t1 := range movers {
		src := cur.assign[t1]
		for _, dst := range pesByEnergy(g, acg, cur.assign, t1) {
			if dst != src && (len(crit) > 0 || g.Task(t1).Energy[dst] < g.Task(t1).Energy[src]) {
				out = append(out, candMove{t: t1, pe: src, dst: dst})
			}
		}
	}
	return out
}

// TestRebuildEarlyRejectDifferential is the exactness oracle of the
// early reject. Along real search trajectories it rebuilds every
// candidate twice: uncut on a fresh builder, and with each acceptance
// rule's cutoff on one reused builder. A completed cutoff rebuild must
// be sched.Diff-identical to the uncut one; an abandoned candidate must
// be one whose uncut rebuild fails that rule.
func TestRebuildEarlyRejectDifferential(t *testing.T) {
	corpus, err := workloadgen.Corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := tightCases(t, 10)
	for _, w := range corpus {
		cases = append(cases, tightCase{w.Name, stepTwo(t, w.Graph, w.ACG)})
	}
	const perCase = 150
	var completed, abandoned int
	for _, tc := range cases {
		s := tc.s
		fresh := func(l *layout) (*sched.Schedule, error) {
			return rebuild(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), l, false, nil)
		}
		reused := sched.NewBuilder(s.Graph, s.ACG, s.Algorithm)
		cur := layoutOf(s)
		curSched, err := fresh(cur)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tried := 0
		for tried < perCase {
			curMetric := metricOf(curSched)
			// Repair accepts a strictly better metric; RefineEnergy and
			// metricBetter reject only a strictly worse one.
			rules := []struct {
				name   string
				bound  metric
				reject func(metric) bool
			}{
				{"repair", curMetric, func(m metric) bool { return !m.better(curMetric) }},
				{"refine", worseThan(curMetric), func(m metric) bool { return curMetric.better(m) }},
			}
			var next *layout
			var nextSched *sched.Schedule
			for _, mv := range neighborhood(cur, curSched) {
				if tried++; tried > perCase {
					break
				}
				mv.try(cur, curSched, func(_, _ int) {
					full, ferr := fresh(cur)
					for _, rule := range rules {
						cut, err := rebuild(reused, cur, false, &rule.bound)
						switch {
						case errors.Is(err, sched.ErrStopped):
							abandoned++
							if ferr == nil && !rule.reject(metricOf(full)) {
								t.Fatalf("%s/%s: abandoned a candidate the rule accepts (%+v vs incumbent %+v)",
									tc.name, rule.name, metricOf(full), curMetric)
							}
						case err != nil:
							if ferr == nil {
								t.Fatalf("%s/%s: cutoff rebuild failed where the full one did not: %v", tc.name, rule.name, err)
							}
						case ferr != nil:
							t.Fatalf("%s/%s: cutoff rebuild completed where the full one failed: %v", tc.name, rule.name, ferr)
						default:
							completed++
							if d := sched.Diff(full, cut); d != "" {
								t.Fatalf("%s/%s: cutoff rebuild diverges from the full one:\n%s", tc.name, rule.name, d)
							}
						}
					}
					if ferr == nil && next == nil && metricOf(full).better(curMetric) {
						next, nextSched = cur.clone(), full
					}
				})
			}
			if next == nil {
				break
			}
			cur, curSched = next, nextSched
		}
	}
	t.Logf("%d cases: %d completed and %d abandoned cutoff rebuilds", len(cases), completed, abandoned)
	if completed == 0 || abandoned == 0 {
		t.Fatalf("oracle exercised %d completed and %d abandoned cutoff rebuilds; want both > 0", completed, abandoned)
	}
}

// TestRepairCandidateSteadyStateAllocs pins what Step 3 allocates per
// candidate on a warm evaluator, over every neighborhood move of a tight
// case under repair's and refine's bounds. A rejected candidate, cut
// short or completed, allocates nothing: the move applies and undoes in
// place, the builder rewinds and resumes on its own tables, log and
// schedule shell, and the cutoff and its callback stay on the stack.
// accept allocates only the Schedule it hands out: the struct and its
// two placement slices. The bounds hold under -race too.
func TestRepairCandidateSteadyStateAllocs(t *testing.T) {
	const rejectBound, acceptBound = 0, 3
	s := tightCases(t, 1)[0].s
	ev := newEvaluator(sched.NewBuilder(s.Graph, s.ACG, s.Algorithm), false)
	cur := layoutOf(s)
	curSched, err := ev.start(cur)
	if err != nil {
		t.Fatal(err)
	}
	m := metricOf(curSched)
	moves := neighborhood(cur, curSched)
	var completed, stopped, accepted int
	for i, mv := range moves {
		for _, bound := range []metric{m, worseThan(m)} {
			var err error
			reject := func(a, c int) { _, err = ev.retime(a, c, bound) }
			mv.try(cur, curSched, reject) // warm-up: grows the tables and the commit log
			switch {
			case err == nil:
				completed++
			case errors.Is(err, sched.ErrStopped):
				stopped++
			}
			if avg := testing.AllocsPerRun(10, func() { mv.try(cur, curSched, reject) }); avg > rejectBound {
				t.Errorf("move %d %+v, bound %+v: a rejected re-timing allocates %.1f objects/run, want <= %v", i, mv, bound, avg, rejectBound)
			}
		}
		if mv.dst >= 0 {
			continue
		}
		// Accept the swapped layout, then the restored one: two accepts.
		never := metric{misses: math.MaxInt}
		var err error
		flip := func() {
			cur.swap(mv.pe, mv.i, mv.j)
			if _, err = ev.retime(mv.pe, -1, never); err == nil {
				curSched = ev.accept()
			}
		}
		if flip(); err != nil {
			cur.swap(mv.pe, mv.i, mv.j) // the swap contradicts the task graph
			continue
		}
		if flip(); err != nil {
			t.Fatalf("move %d %+v: re-timing the restored layout: %v", i, mv, err)
		}
		accepted++
		if avg := testing.AllocsPerRun(10, func() { flip(); flip() }); avg > 2*acceptBound {
			t.Errorf("move %d %+v: two accepted re-timings allocate %.1f objects/run, want <= %v", i, mv, avg, 2*acceptBound)
		}
	}
	t.Logf("%d moves: %d completed and %d stopped rejects, %d swaps accepted", len(moves), completed, stopped, accepted)
	if completed == 0 || stopped == 0 || accepted == 0 {
		t.Fatalf("exercised %d completed and %d stopped rejects and %d accepts; want all > 0", completed, stopped, accepted)
	}
}

// BenchmarkRepairTight times Step 3 alone on batch-tight-shaped
// instances: repair from each instance's Step 2 schedule, re-timing on
// one warm builder reset per instance, as ScheduleWith re-times on its
// own builder, so table growth no solve pays stays out.
func BenchmarkRepairTight(b *testing.B) {
	var missing []*sched.Schedule
	for _, tc := range tightCases(b, 20) {
		if !tc.s.Feasible() {
			missing = append(missing, tc.s)
		}
	}
	if len(missing) == 0 {
		b.Fatal("no batch-tight instance misses a deadline after Step 2")
	}
	bld := sched.NewBuilder(missing[0].Graph, missing[0].ACG, missing[0].Algorithm)
	run := func(s *sched.Schedule) {
		bld.Reset(s.Graph, s.ACG)
		if _, _, err := repair(newEvaluator(bld, false), s, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range missing {
		run(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(missing[i%len(missing)])
	}
}
