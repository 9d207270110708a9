package eas

import (
	"errors"
	"fmt"
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

// neighborhood returns the candidate layouts the search would try from
// cur: Repair's LTS swaps and GTM migrations of the critical tasks when
// curSched misses deadlines, otherwise RefineEnergy's migrations to
// cheaper PEs.
func neighborhood(cur *layout, curSched *sched.Schedule) []*layout {
	g, acg := curSched.Graph, curSched.ACG
	var out []*layout
	crit := criticalTasks(curSched)
	isCritical := make(map[ctg.TaskID]bool, len(crit))
	for _, t := range crit {
		isCritical[t] = true
	}
	for _, t1 := range crit {
		pe := cur.assign[t1]
		idx1 := indexOf(cur.order[pe], t1)
		for idx2 := idx1 - 1; idx2 >= max(0, idx1-ltsLookback); idx2-- {
			if isCritical[cur.order[pe][idx2]] {
				continue
			}
			cand := cur.clone()
			cand.order[pe][idx1], cand.order[pe][idx2] = cand.order[pe][idx2], cand.order[pe][idx1]
			out = append(out, cand)
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
			if dst == src || (len(crit) == 0 && g.Task(t1).Energy[dst] >= g.Task(t1).Energy[src]) {
				continue
			}
			cand := cur.clone()
			migrate(cand, curSched, t1, src, dst)
			out = append(out, cand)
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
			for _, cand := range neighborhood(cur, curSched) {
				if tried++; tried > perCase {
					break
				}
				full, ferr := fresh(cand)
				for _, rule := range rules {
					cut, err := rebuild(reused, cand, false, &rule.bound)
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
					next, nextSched = cand, full
				}
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

// TestRepairCandidateSteadyStateAllocs bounds the allocation of one
// candidate rebuild on a warm builder, cut short or not: only the
// escaping Schedule shell that Reset allocates (the struct and its two
// placement slices) — tables, route tables and CommitOrder scratch are
// reused, and the cutoff and its callback stay on the stack.
func TestRepairCandidateSteadyStateAllocs(t *testing.T) {
	s := tightCases(t, 1)[0].s
	b := sched.NewBuilder(s.Graph, s.ACG, s.Algorithm)
	cur := layoutOf(s)
	curSched, err := rebuild(b, cur, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := metricOf(curSched)
	cands := append([]*layout{cur}, neighborhood(cur, curSched)...)
	for i, cand := range cands[:min(len(cands), 8)] {
		for _, cut := range []*metric{nil, &bound} {
			rebuild(b, cand, false, cut) // warm-up: grows the table and commit scratch
			// 3 = Schedule struct + Tasks + Transactions.
			if avg := testing.AllocsPerRun(10, func() { rebuild(b, cand, false, cut) }); avg > 3 {
				t.Errorf("candidate %d (cutoff %v): rebuild allocates %.1f objects/run, want <= 3", i, cut != nil, avg)
			}
		}
	}
}

// BenchmarkRepairTight times Step 3 alone on batch-tight-shaped
// instances: Repair from each instance's Step 2 schedule.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Repair(missing[i%len(missing)], 0, false); err != nil {
			b.Fatal(err)
		}
	}
}
