package sched

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// proberRig builds a TGFF graph on a 3x3 mesh, large enough that link
// contention and multi-hop routes actually occur.
func proberRig(t *testing.T, seed int64, tasks int) (*ctg.Graph, *energy.ACG) {
	t.Helper()
	platform, err := noc.NewHeterogeneousMesh(3, 3, noc.RouteXY, 100)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.Model{ESbit: 1, ELbit: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Seed = seed
	p.NumTasks = tasks
	g, err := tgff.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return g, acg
}

// TestProbePredictsCommit drives a random commit sequence and, at every
// step, checks the read-only Prober against the commit path it must
// predict: for every ready task x capable PE, a second builder replays
// the committed prefix and then commits the pair, and the probe must
// report exactly that placement. This is the load-bearing equivalence
// of the whole probe path.
func TestProbePredictsCommit(t *testing.T) {
	type step struct {
		task ctg.TaskID
		pe   int
	}
	for _, seed := range []int64{1, 2, 3} {
		g, acg := proberRig(t, seed, 60)
		b := NewBuilder(g, acg, "test")
		pr := b.NewProber()
		ref := NewBuilder(g, acg, "test")
		rng := rand.New(rand.NewSource(seed * 7))
		var prefix []step
		var ready []ctg.TaskID
		for b.Committed() < g.NumTasks() {
			ready = b.AppendReady(ready[:0])
			if len(ready) == 0 {
				t.Fatal("no ready tasks before completion")
			}
			for _, task := range ready {
				for k := 0; k < acg.NumPEs(); k++ {
					if !g.Task(task).RunnableOn(k) {
						continue
					}
					got, err := pr.Probe(task, k)
					if err != nil {
						t.Fatalf("seed %d task %d PE %d: probe: %v", seed, task, k, err)
					}
					ref.Reset(g, acg)
					for _, s := range prefix {
						if _, err := ref.Commit(s.task, s.pe); err != nil {
							t.Fatal(err)
						}
					}
					want, err := ref.Commit(task, k)
					if err != nil {
						t.Fatalf("seed %d task %d PE %d: commit: %v", seed, task, k, err)
					}
					if got.Start != want.Start || got.Finish != want.Finish ||
						got.DRT != want.DRT || got.CommEnergy != want.CommEnergy {
						t.Fatalf("seed %d task %d PE %d: probe %+v, commit Start=%d Finish=%d DRT=%d Comm=%v",
							seed, task, k, got, want.Start, want.Finish, want.DRT, want.CommEnergy)
					}
				}
			}
			// Commit a random ready task on a random capable PE.
			task := ready[rng.Intn(len(ready))]
			k := rng.Intn(acg.NumPEs())
			for !g.Task(task).RunnableOn(k) {
				k = rng.Intn(acg.NumPEs())
			}
			if _, err := b.Commit(task, k); err != nil {
				t.Fatal(err)
			}
			prefix = append(prefix, step{task, k})
		}
	}
}

// TestProbeZeroAllocs guards the hot path: after warm-up a read-only
// probe must not allocate. Skipped under -race, whose instrumentation
// allocates.
func TestProbeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race")
	}
	g, acg := proberRig(t, 5, 60)
	b := NewBuilder(g, acg, "test")
	// Commit the first half so probes see busy tables.
	for b.Committed() < g.NumTasks()/2 {
		ready := b.AppendReady(nil)
		if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
			t.Fatal(err)
		}
	}
	pr := b.NewProber()
	ready := b.AppendReady(nil)
	task := ready[0]
	// Warm-up grows the lct scratch and the overlay's pending slices.
	for k := 0; k < acg.NumPEs(); k++ {
		if _, err := pr.Probe(task, k); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for k := 0; k < acg.NumPEs(); k++ {
			if _, err := pr.Probe(task, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("probe allocates: %v allocs per %d-PE sweep, want 0", avg, acg.NumPEs())
	}
	if avg := cachedSweepAllocs(t, pr, task); avg != 0 {
		t.Fatalf("cached probe allocates: %v allocs per miss+hit sweep pair, want 0", avg)
	}
}

// cachedSweepAllocs measures ProbeCached's allocations over pairs of
// task sweeps: the first sweep of each pair misses on every PE (the
// cache was just invalidated), the second hits on every PE.
func cachedSweepAllocs(t *testing.T, pr *Prober, task ctg.TaskID) float64 {
	t.Helper()
	npe := pr.b.ACG().NumPEs()
	sweep := func() {
		for k := 0; k < npe; k++ {
			if _, err := pr.ProbeCached(task, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 200
	before := pr.Work().ProbeReuses
	avg := testing.AllocsPerRun(runs, func() {
		pr.b.invalidate()
		sweep()
		sweep()
	})
	// AllocsPerRun adds one warm-up run.
	if got, want := pr.Work().ProbeReuses-before, int64((runs+1)*npe); got != want {
		t.Fatalf("%d of the hit sweeps' probes reused, want %d", got, want)
	}
	return avg
}

// TestProbeZeroAllocsWithMetrics is the enabled-telemetry twin of
// TestProbeZeroAllocs: with the PE-pair tally a run that publishes
// telemetry keeps attached, the probe path still must not allocate.
func TestProbeZeroAllocsWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race")
	}
	g, acg := proberRig(t, 5, 60)
	b := NewBuilder(g, acg, "test")
	for b.Committed() < g.NumTasks()/2 {
		ready := b.AppendReady(nil)
		if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
			t.Fatal(err)
		}
	}
	pr := b.NewProber()
	pr.restart(acg.NumPEs(), true)
	ready := b.AppendReady(nil)
	task := ready[0]
	for k := 0; k < acg.NumPEs(); k++ {
		if _, err := pr.Probe(task, k); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for k := 0; k < acg.NumPEs(); k++ {
			if _, err := pr.Probe(task, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("metered probe allocates: %v allocs per %d-PE sweep, want 0", avg, acg.NumPEs())
	}
	if avg := cachedSweepAllocs(t, pr, task); avg != 0 {
		t.Fatalf("metered cached probe allocates: %v allocs per miss+hit sweep pair, want 0", avg)
	}
	var pairs int64
	for _, n := range pr.pairs {
		pairs += n
	}
	if want := pr.work.Probes * int64(len(g.In(task))); pairs != want {
		t.Errorf("pair tally holds %d, want %d (%d probes x %d in-edges)",
			pairs, want, pr.work.Probes, len(g.In(task)))
	}
}

// allPEsPick is a list-scheduling rule that probes every runnable PE
// of every ready task through ProbeCached, so later rounds reuse
// probes, and commits the earliest finish (ties to the lower task,
// then PE). It adds each probe's incoming transactions to pairs at
// (sender's PE, candidate PE), and each round's ready-list length to
// depth: what ListSchedule must publish, counted independently.
func allPEsPick(pairs []int64, depth *int64) Pick {
	return func(b *Builder, pr *Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
		*depth += int64(len(rtl))
		g, npe := b.Graph(), b.ACG().NumPEs()
		bestT, bestK, bestF := rtl[0], -1, int64(0)
		for _, t := range rtl {
			for k := 0; k < npe; k++ {
				if !g.Task(t).RunnableOn(k) {
					continue
				}
				p, err := pr.ProbeCached(t, k)
				if err != nil {
					return 0, 0, err
				}
				for _, eid := range g.In(t) {
					pairs[b.TaskPlacement(g.Edge(eid).Src).PE*npe+k]++
				}
				if bestK < 0 || p.Finish < bestF {
					bestT, bestK, bestF = t, k, p.Finish
				}
			}
		}
		return bestT, bestK, nil
	}
}

// TestListSchedulePublishConcurrent solves on several builders at once
// into one shared registry — the batch engine's workers do exactly
// this — and reconciles what the runs published with what they
// counted: each counter equals the sum of the runs' Work or commits,
// the PE-pair grid equals, cell by cell, the pairs the picks probed,
// and the ready-depth histogram holds one observation per round, its
// sum the rounds' list lengths. Under -race this is the telemetry
// layer's concurrency proof on the real solve path.
func TestListSchedulePublishConcurrent(t *testing.T) {
	const workers, runs = 4, 3
	type worker struct {
		graphs  []*ctg.Graph
		work    Work
		commits int64
		depth   int64
		pairs   []int64
	}
	ws := make([]worker, workers)
	var acg *energy.ACG
	for w := range ws {
		for r := 0; r < runs; r++ {
			var g *ctg.Graph
			g, acg = proberRig(t, int64(60+w*runs+r), 30+5*r)
			ws[w].graphs = append(ws[w].graphs, g)
		}
		ws[w].pairs = make([]int64, acg.NumPEs()*acg.NumPEs())
	}
	reg := telemetry.NewRegistry()
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			var b Builder
			for _, g := range w.graphs {
				s, err := b.ListSchedule(g, acg, "all", reg, true, allPEsPick(w.pairs, &w.depth))
				if err != nil {
					t.Error(err)
					return
				}
				w.work.Add(s.Work)
				w.commits += int64(g.NumTasks())
			}
		}(&ws[w])
	}
	wg.Wait()

	var work Work
	var commits, depth int64
	pairs := make([]int64, acg.NumPEs()*acg.NumPEs())
	for _, w := range ws {
		work.Add(w.work)
		commits += w.commits
		depth += w.depth
		for i, n := range w.pairs {
			pairs[i] += n
		}
	}
	if work.ProbeReuses == 0 || work.ProbeReuses == work.Probes {
		t.Fatalf("runs reused %d of %d probes, want some but not all", work.ProbeReuses, work.Probes)
	}
	for _, c := range []struct {
		name string
		want int64
	}{{MetricProbes, work.Probes}, {MetricProbeReuses, work.ProbeReuses}, {MetricCommits, commits}} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	h := reg.Histogram(MetricReadyDepth, nil)
	if h.Count() != commits || h.Sum() != depth {
		t.Errorf("%s: count %d, sum %d; want %d rounds, %d listed", MetricReadyDepth, h.Count(), h.Sum(), commits, depth)
	}
	npe := acg.NumPEs()
	got := make([]int64, len(pairs))
	for _, gs := range reg.Snapshot().Grids {
		if gs.Name != MetricProbePairs || gs.Rows != npe || gs.Cols != npe {
			continue
		}
		for _, c := range gs.Cells {
			got[c.Row*npe+c.Col] = c.Value
		}
	}
	if !slices.Equal(got, pairs) {
		t.Errorf("%s = %v, the picks probed %v", MetricProbePairs, got, pairs)
	}
}

// TestListSchedulePublishFailedRun: a run whose pick fails publishes
// the work it did: its probes, its commits, and one ready depth per
// round, the failed round's included.
func TestListSchedulePublishFailedRun(t *testing.T) {
	g, acg := proberRig(t, 71, 30)
	reg := telemetry.NewRegistry()
	var depth int64
	all := allPEsPick(make([]int64, acg.NumPEs()*acg.NumPEs()), &depth)
	const failAt = 5
	errPick := errors.New("pick failed")
	rounds := 0
	var b Builder
	_, err := b.ListSchedule(g, acg, "fail", reg, true, func(b *Builder, pr *Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error) {
		task, k, err := all(b, pr, rtl)
		if rounds++; rounds == failAt {
			return 0, 0, errPick
		}
		return task, k, err
	})
	if !errors.Is(err, errPick) {
		t.Fatalf("ListSchedule error = %v, want %v", err, errPick)
	}
	if got, want := reg.Counter(MetricProbes).Value(), b.prober.Work().Probes; got != want || want == 0 {
		t.Errorf("%s = %d, the run probed %d times", MetricProbes, got, want)
	}
	if got := reg.Counter(MetricCommits).Value(); got != failAt-1 {
		t.Errorf("%s = %d, want %d", MetricCommits, got, failAt-1)
	}
	if h := reg.Histogram(MetricReadyDepth, nil); h.Count() != failAt || h.Sum() != depth {
		t.Errorf("%s: count %d, sum %d; want %d rounds, %d listed", MetricReadyDepth, h.Count(), h.Sum(), failAt, depth)
	}
}

// TestEarliestFinishPEZeroAllocs guards the row scan's scratch.
func TestEarliestFinishPEZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race")
	}
	g, acg := proberRig(t, 6, 40)
	b := NewBuilder(g, acg, "test")
	pr := b.NewProber()
	ready := b.AppendReady(nil)
	task := ready[0]
	if _, err := pr.EarliestFinishPE(task); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := pr.EarliestFinishPE(task); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("EarliestFinishPE allocates: %v allocs per call, want 0", avg)
	}
}

// TestConcurrentProbers hammers one builder with many probers at once;
// run under -race this proves probing really is read-only.
func TestConcurrentProbers(t *testing.T) {
	g, acg := proberRig(t, 9, 60)
	b := NewBuilder(g, acg, "test")
	for b.Committed() < g.NumTasks()/2 {
		ready := b.AppendReady(nil)
		if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
			t.Fatal(err)
		}
	}
	ready := b.AppendReady(nil)
	seq := b.NewProber()
	want := make([]ProbeResult, len(ready))
	for i, task := range ready {
		p, err := seq.Probe(task, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := b.NewProber()
			for rep := 0; rep < 20; rep++ {
				for i, task := range ready {
					got, err := pr.Probe(task, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Finish != want[i].Finish || got.Start != want[i].Start {
						t.Errorf("task %d: concurrent probe [%d,%d), sequential [%d,%d)",
							task, got.Start, got.Finish, want[i].Start, want[i].Finish)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEarliestFinishPEMatchesSequential compares the lazy row scan
// against a direct scan of every PE through a second Prober.
func TestEarliestFinishPEMatchesSequential(t *testing.T) {
	g, acg := proberRig(t, 13, 50)
	b := NewBuilder(g, acg, "test")
	pr := b.NewProber()
	seq := b.NewProber()
	for b.Committed() < g.NumTasks() {
		ready := b.AppendReady(nil)
		task := ready[0]
		// Sequential oracle: strict earliest finish, lowest PE wins ties.
		bestPE, bestFinish := -1, int64(0)
		for k := 0; k < acg.NumPEs(); k++ {
			if !g.Task(task).RunnableOn(k) {
				continue
			}
			p, err := seq.Probe(task, k)
			if err != nil {
				t.Fatal(err)
			}
			if bestPE < 0 || p.Finish < bestFinish {
				bestPE, bestFinish = k, p.Finish
			}
		}
		got, err := pr.EarliestFinishPE(task)
		if err != nil {
			t.Fatal(err)
		}
		if got.PE != bestPE || got.Finish != bestFinish {
			t.Fatalf("task %d: row scan picked PE %d finish %d, oracle PE %d finish %d",
				task, got.PE, got.Finish, bestPE, bestFinish)
		}
		if _, err := b.Commit(task, got.PE); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiff covers the schedule differ on equal and perturbed schedules.
func TestDiff(t *testing.T) {
	g, acg := proberRig(t, 17, 30)
	build := func() *Schedule {
		b := NewBuilder(g, acg, "test")
		for b.Committed() < g.NumTasks() {
			ready := b.AppendReady(nil)
			if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
				t.Fatal(err)
			}
		}
		s, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, bsched := build(), build()
	if d := Diff(a, bsched); d != "" {
		t.Fatalf("identical builds differ: %s", d)
	}
	bsched.Tasks[3].Start++
	if d := Diff(a, bsched); d == "" {
		t.Fatal("perturbed task start not detected")
	}
	bsched.Tasks[3].Start--
	if len(bsched.Transactions) > 0 {
		bsched.Transactions[0].Finish++
		if d := Diff(a, bsched); d == "" {
			t.Fatal("perturbed transaction not detected")
		}
	}
}
