package sched

import (
	"math/rand"
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
	before := pr.Reuses()
	avg := testing.AllocsPerRun(runs, func() {
		pr.b.invalidate()
		sweep()
		sweep()
	})
	// AllocsPerRun adds one warm-up run.
	if got, want := pr.Reuses()-before, int64((runs+1)*npe); got != want {
		t.Fatalf("%d of the hit sweeps' probes reused, want %d", got, want)
	}
	return avg
}

// TestProbeZeroAllocsWithMetrics is the enabled-telemetry twin of
// TestProbeZeroAllocs: with a live registry attached the probe path
// still must not allocate — handles are pre-resolved at prober
// construction, so each update is one nil check plus one atomic add.
func TestProbeZeroAllocsWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race")
	}
	g, acg := proberRig(t, 5, 60)
	b := NewBuilder(g, acg, "test")
	b.SetMetrics(NewMetrics(telemetry.NewRegistry(), acg.NumPEs()))
	for b.Committed() < g.NumTasks()/2 {
		ready := b.AppendReady(nil)
		if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
			t.Fatal(err)
		}
	}
	pr := b.NewProber()
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
}

// TestProbePoolCountersConcurrent runs metered probes on several
// goroutines at once, each driving its own builder and prober into one
// shared registry — the batch engine's workers do exactly this — and
// checks the shared counters add up exactly; under -race this is the
// telemetry layer's concurrency proof on the real probe path.
func TestProbePoolCountersConcurrent(t *testing.T) {
	g, acg := proberRig(t, 21, 60)
	reg := telemetry.NewRegistry()
	const workers, n = 4, 500
	probers := make([]*Prober, workers)
	var task ctg.TaskID
	for w := range probers {
		b := NewBuilder(g, acg, "test")
		b.SetMetrics(NewMetrics(reg, acg.NumPEs()))
		for b.Committed() < g.NumTasks()/3 {
			ready := b.AppendReady(nil)
			if _, err := b.Commit(ready[0], int(ready[0])%acg.NumPEs()); err != nil {
				t.Fatal(err)
			}
		}
		// Listing the ready tasks gives them cache rows. Every builder
		// committed the same prefix, so they share the first one.
		task = b.AppendReady(nil)[0]
		probers[w] = b.NewProber()
	}
	runnable := 0
	for k := 0; k < acg.NumPEs(); k++ {
		if g.Task(task).RunnableOn(k) {
			runnable++
		}
	}
	var wg sync.WaitGroup
	for _, pr := range probers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := i % acg.NumPEs()
				for !g.Task(task).RunnableOn(k) {
					k = (k + 1) % acg.NumPEs()
				}
				if _, err := pr.ProbeCached(task, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter(MetricProbes).Value(); got != workers*n {
		t.Errorf("%s = %d, want %d", MetricProbes, got, workers*n)
	}
	// Each prober evaluates every runnable PE once; the rest are reused.
	if got, want := reg.Counter(MetricProbeReuses).Value(), int64(workers*(n-runnable)); got != want {
		t.Errorf("%s = %d, want %d", MetricProbeReuses, got, want)
	}
	// Every probe charged exactly one pair cell per incoming edge.
	snap := reg.Snapshot()
	var pairTotal int64
	for _, gs := range snap.Grids {
		if gs.Name == MetricProbePairs {
			pairTotal = gs.Total()
		}
	}
	if want := int64(workers * n * len(g.In(task))); pairTotal != want {
		t.Errorf("%s total = %d, want %d (%d probes x %d in-edges)",
			MetricProbePairs, pairTotal, want, workers*n, len(g.In(task)))
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
