package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// batchSetups is how many times a batch run sets the engine up; setup_s
// is the median. Set-up takes well under a millisecond, so many
// repetitions are cheap and steady the median.
const batchSetups = 31

// batchStats are the per-instance figures of a phase beyond its latency
// samples, which are the engine's own Result.Latency.
type batchStats struct {
	solveByAlgo map[string][]float64 // ms
	// delivered sums each instance's time from its Submit call to its
	// delivery (ms): the solve plus waiting for a queue slot, in the
	// queue and in the reorder buffer.
	delivered      float64
	probes         int64 // all instances
	easProbes      int64 // EAS instances only
	easN           int
	repairTried    int
	repairAccepted int
	refineTried    int
}

// batchRun streams one workload's graphs through an engine.
type batchRun struct {
	w    workload
	p    *platform
	seed int64
}

// phase streams fresh graphs first, first+1, ... through the engine for
// dur, in calibrated slices, and past dur until at least w.quality and
// w.check instances ran, so that the deterministic metrics always cover
// the same instances. keep sees every result in submission order. It
// returns the index of the next unused graph.
func (b *batchRun) phase(ctx context.Context, engine *batch.Engine, first int, dur time.Duration,
	clock *traceClock, keep func(i int, r *batch.Result)) (*phase, *batchStats, int, error) {
	bs := &batchStats{solveByAlgo: make(map[string][]float64)}
	next := first
	ph, err := sliced(dur, func(d time.Duration) (*slice, error) {
		cpu0, err := procCPUSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		sl, n, err := b.slice(ctx, engine, next, d, clock, keep, bs)
		if err != nil {
			return nil, err
		}
		next += n
		cpu1, err := procCPUSeconds(os.Getpid())
		sl.cpu = cpu1 - cpu0
		return sl, err
	}, func() bool { return next-first < max(b.w.quality, b.w.check) })
	if err != nil {
		return nil, nil, 0, err
	}
	return ph, bs, next, nil
}

// slice runs one stream for d, generating each graph just before its
// Submit, and returns what it measured and how many instances it
// submitted.
func (b *batchRun) slice(ctx context.Context, engine *batch.Engine, first int, d time.Duration,
	clock *traceClock, keep func(i int, r *batch.Result), bs *batchStats) (*slice, int, error) {
	st := engine.Stream(ctx)
	var (
		mu       sync.Mutex
		admitted []time.Time
		genErr   error
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer st.Close()
		for i := first; time.Now().Before(deadline); i++ {
			g, err := b.w.graph(b.p, b.seed, i)
			if err != nil {
				genErr = err
				return
			}
			mu.Lock()
			admitted = append(admitted, time.Now())
			mu.Unlock()
			inst := batch.Instance{Name: g.Name, Graph: g, ACG: b.p.acg, Algorithm: b.w.algorithm(i)}
			if err := st.Submit(inst); err != nil {
				genErr = err
				return
			}
		}
	}()

	sl := &slice{}
	var lanes lanes
	n := 0
	for r := range st.Results() {
		now := time.Now()
		n++
		mu.Lock()
		at := admitted[r.Index]
		mu.Unlock()
		if clock != nil {
			lane := lanes.place(at.Sub(start).Microseconds(), now.Sub(start).Microseconds())
			clock.span(fmt.Sprintf("inst %d %s", first+r.Index, r.Algorithm), fmt.Sprintf("nocbench instances %d", lane), at, now)
		}
		if r.Err != nil {
			sl.failed++
			continue
		}
		sl.ok++
		solve := float64(r.Latency.Nanoseconds()) / 1e6
		sl.lat = append(sl.lat, solve)
		bs.solveByAlgo[r.Algorithm] = append(bs.solveByAlgo[r.Algorithm], solve)
		bs.delivered += float64(now.Sub(at).Nanoseconds()) / 1e6
		if r.EAS != nil {
			bs.easN++
			bs.easProbes += r.EAS.Probes
			bs.probes += r.EAS.Probes
			bs.repairTried += r.EAS.RepairStats.MovesTried
			bs.repairAccepted += r.EAS.RepairStats.SwapsAccepted + r.EAS.RepairStats.MigrationsAccepted
			bs.refineTried += r.EAS.RefineStats.MovesTried
		} else {
			bs.probes += r.Schedule.Probes
		}
		if keep != nil {
			keep(first+r.Index, &r)
		}
	}
	sl.wall = time.Since(start)
	wg.Wait()
	return sl, n, genErr
}

func runBatch(ctx context.Context, cfg config, w workload) (*result, error) {
	res := newResult()
	// Set-up is everything before the first instance can run: the
	// platform and its ACG, the engine, its shared route plan, and the
	// stream's workers.
	var (
		p      *platform
		engine *batch.Engine
		setups []float64
	)
	speed, err := calibrated(func() error {
		for i := 0; i < batchSetups; i++ {
			start := time.Now()
			var err error
			if p, err = newPlatform(); err != nil {
				return err
			}
			engine = batch.New(batch.Options{Workers: workers})
			engine.Plan(p.acg)
			st := engine.Stream(ctx)
			setups = append(setups, time.Since(start).Seconds())
			st.Close()
			for range st.Results() {
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setup(setups, speed)

	b := &batchRun{w: w, p: p, seed: cfg.seed}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	q := &quality{}
	checked := make([]*sched.Schedule, 0, w.check)
	keep := func(i int, r *batch.Result) {
		if i < w.quality {
			q.add(r.Schedule)
		}
		if i < w.check {
			checked = append(checked, r.Schedule)
		}
	}
	heap := startLiveHeap()
	untraced, _, next, err := b.phase(ctx, engine, 0, dur, nil, keep)
	live := heap.medianMiB()
	if err != nil {
		return nil, err
	}
	res.count(untraced)

	// Correctness, after timing: the leading instances pass the oracle,
	// survive a WriteJSON/ReadJSON round trip, and equal an independent
	// serial solve on a fresh workspace.
	for i, s := range checked {
		if err := checkInstance(b, i, s); err != nil {
			return nil, err
		}
	}
	if res.digest, err = scheduleDigest(checked); err != nil {
		return nil, err
	}

	res.timings(untraced, w.tail)
	res.e2e["mem_mb"] = live
	res.quality(q)
	if !cfg.trace {
		return res, nil
	}

	// Traced phase: a fresh engine whose collector records the
	// schedulers' own spans, on graphs no earlier phase used.
	sink := &memSink{}
	clock := newTraceClock(sink)
	tracedEngine := batch.New(batch.Options{Workers: workers,
		Telemetry: &telemetry.Collector{Registry: telemetry.NewRegistry(), Tracer: clock.tr}})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, bs, _, err := b.phase(ctx, tracedEngine, next, dur, clock, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	res.count(traced)
	res.events, res.dropped = sink.take()

	tot := traced.total()
	ops := float64(tot.ok)
	solveMS := mean(tot.lat)
	res.layers["batch.solve_ms_mean"] = solveMS
	res.layers["batch.queue_wait_ms_mean"] = ratio(bs.delivered, ops) - solveMS
	res.layers["batch.worker_busy_ratio"] = solveMS * ops / (float64(tot.wall.Nanoseconds()) / 1e6 * workers)
	res.layers["runtime.gc_cycles_per_kop"] = 1000 * ratio(float64(ms1.NumGC-ms0.NumGC), ops)
	res.layers["sched.probes_per_op"] = ratio(float64(bs.probes), ops)
	res.layers["dls.solve_ms_mean"] = mean(bs.solveByAlgo["dls"])
	res.layers["edf.solve_ms_mean"] = mean(bs.solveByAlgo["edf"])
	res.layers["trace.overhead_ratio"] = untraced.throughput()/traced.throughput() - 1
	res.samples["batch.solve_ms_mean"] = len(tot.lat)

	us, n := spanTotals(res.events, "eas phases")
	_, passes := spanTotals(res.events, "eas")
	passN := 0
	for _, k := range passes {
		passN += k
	}
	perEAS := func(v float64) float64 { return ratio(v, float64(bs.easN)) }
	res.layers["eas.step1_ms"] = perEAS(float64(us["step1:budget"]) / 1000)
	res.layers["eas.step2_ms"] = perEAS(float64(us["step2:level-schedule"]) / 1000)
	res.layers["eas.step3_ms"] = perEAS(float64(us["step3:repair"]) / 1000)
	res.layers["eas.fallback_ms"] = perEAS(float64(us["fallback:deadline-first+refine"]) / 1000)
	res.layers["eas.passes_per_op"] = perEAS(float64(passN))
	res.layers["eas.repair_moves_tried_per_op"] = perEAS(float64(bs.repairTried))
	res.layers["eas.repair_accept_ratio"] = ratio(float64(bs.repairAccepted), float64(bs.repairTried))
	res.layers["eas.refine_moves_tried_per_op"] = perEAS(float64(bs.refineTried))
	res.layers["sched.probe_ns"] = ratio(float64(us["step2:level-schedule"])*1000, float64(bs.easProbes))
	res.samples["eas.step2_ms"] = n["step2:level-schedule"]

	alloc, err := allocPerInstance(ctx, b)
	if err != nil {
		return nil, err
	}
	res.layers["runtime.alloc_kb_per_op"] = alloc
	return res, nil
}

// checkInstance re-checks engine schedule i against the oracle, the
// JSON round trip and the serial reference.
func checkInstance(b *batchRun, i int, s *sched.Schedule) error {
	if err := structural(s); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return err
	}
	back, err := sched.ReadJSON(&buf, s.Graph, s.ACG)
	if err != nil {
		return fmt.Errorf("instance %d: re-load: %w", i, err)
	}
	if diff := sched.Diff(s, back); diff != "" {
		return fmt.Errorf("instance %d: JSON round trip changed the schedule: %s", i, diff)
	}
	g, err := b.w.graph(b.p, b.seed, i)
	if err != nil {
		return err
	}
	ref, err := reference(g, b.p.acg, b.w.algorithm(i))
	if err != nil {
		return fmt.Errorf("instance %d: reference solve: %w", i, err)
	}
	if diff := sched.Diff(s, ref); diff != "" {
		return fmt.Errorf("instance %d: engine schedule differs from the reference solve: %s", i, diff)
	}
	return nil
}

// allocPerInstance measures heap allocation per instance (KiB) of the
// engine and schedulers alone, by running the checked instances through
// a fresh engine with their graphs generated beforehand: during the
// timed phases, input generation shares the process's counters.
func allocPerInstance(ctx context.Context, b *batchRun) (float64, error) {
	n := max(b.w.check, workers)
	insts := make([]batch.Instance, n)
	for i := range insts {
		g, err := b.w.graph(b.p, b.seed, i)
		if err != nil {
			return 0, err
		}
		insts[i] = batch.Instance{Name: g.Name, Graph: g, ACG: b.p.acg, Algorithm: b.w.algorithm(i)}
	}
	engine := batch.New(batch.Options{Workers: workers})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	results, err := engine.Run(ctx, insts)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return 0, err
	}
	if i := slices.IndexFunc(results, func(r batch.Result) bool { return r.Err != nil }); i >= 0 {
		return 0, fmt.Errorf("alloc replay: %w", results[i].Err)
	}
	return float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n), nil
}
