package main

import (
	"math"

	"nocsched/internal/tgff"
)

// workload is one named traffic mix. Every input derives from the run's
// seed; the program under test only ever sees the generated graphs.
type workload struct {
	name string
	// serve workloads drive a schedd daemon over HTTP with conns
	// closed-loop connections; the others drive an in-process batch
	// engine with two workers.
	serve bool
	conns int

	category tgff.Category
	// tasks per graph; 0 keeps the suite's own size (480-525 tasks).
	tasks int
	// laxity overrides the suite's deadline laxity when positive.
	laxity float64
	// algorithms are assigned round-robin by graph index.
	algorithms []string

	// graphs is the number of distinct graphs a serve workload cycles
	// through. Batch workloads stream an unbounded sequence instead, one
	// fresh graph per instance.
	graphs int
	// zipf, when positive, draws the request order from a seeded
	// Zipf(zipf) distribution over the graphs instead of cycling.
	zipf float64
	// warmup is the number of untimed requests sent before timing.
	warmup int
	// cacheEntries bounds schedd's schedule cache (0: its default).
	cacheEntries int

	// check is how many leading batch instances are re-solved by the
	// serial reference and compared under sched.Diff.
	check int
	// quality is how many leading batch instances the energy and
	// deadline-miss metrics average over, so they do not depend on how
	// many instances a run happened to finish.
	quality int
	// tail is the reported tail quantile in per mille: the highest
	// candidate with ten samples beyond it in one slice of a usual run
	// (see tail and sliced).
	tail int
}

var workloads = []workload{
	{
		name: "serve-hit", serve: true, conns: 2,
		category: tgff.CategoryI, tasks: 250, algorithms: []string{"eas", "edf", "dls"},
		graphs: 64, tail: 950,
	},
	{
		// One connection: with two, a hit that overlaps another request's
		// solve takes twice as long, and the median sat on the boundary
		// between the two cases.
		name: "serve-zipf", serve: true, conns: 1,
		category: tgff.CategoryI, tasks: 100, algorithms: []string{"eas", "edf"},
		graphs: 1000, zipf: 1.1, warmup: 1000, cacheEntries: 256, tail: 950,
	},
	{
		name:     "batch-loose",
		category: tgff.CategoryI, tasks: 500, laxity: 3.0, algorithms: []string{"eas"},
		check: 24, quality: 600, tail: 950,
	},
	{
		name:     "batch-tight",
		category: tgff.CategoryII, tasks: 30, laxity: 0.95, algorithms: []string{"eas"},
		check: 32, quality: 1000, tail: 950,
	},
	{
		name:     "batch-baselines",
		category: tgff.CategoryI, tasks: 300, algorithms: []string{"dls", "edf", "dls"},
		check: 6, quality: 200, tail: 750,
	},
}

// scaled shrinks a workload's input counts by scale (tests run at 0.02),
// keeping at least two graphs and one checked instance.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	n := func(v, floor int) int {
		if v == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(v)*scale)))
	}
	w.graphs = n(w.graphs, 2)
	w.warmup = n(w.warmup, 1)
	w.cacheEntries = n(w.cacheEntries, 1)
	w.check = n(w.check, 1)
	w.quality = n(w.quality, 1)
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one declared benchmark metric; BENCHMARK.json mirrors these
// tables and a test keeps the two equal.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.2},
	{"latency_p50_ms", "ms", "lower", 0.2},
	{"latency_tail_ms", "ms", "lower", 0.2},
	{"cpu_ms_per_op", "ms", "lower", 0.2},
	{"mem_mb", "MiB", "lower", 0.15},
	{"energy_ratio", "ratio", "lower", 0.03},
}

// target is an end-to-end metric a layer metric is expected to move,
// on a named workload.
type target struct{ metric, workload string }

// layer is a per-layer metric and the end-to-end metrics it should
// move. On workloads it names no target for, it should move little or
// not at all; on workloads that never reach its layer it reads 0.
type layer struct {
	metric
	moves []target
}

func on(m string, ws ...string) []target {
	ts := make([]target, len(ws))
	for i, w := range ws {
		ts[i] = target{m, w}
	}
	return ts
}

var layers = []layer{
	// serve: deltas of schedd's own /metrics over the traced phase.
	{metric{name: "serve.handler_ms_mean", unit: "ms", better: "lower"}, on("latency_p50_ms", "serve-hit", "serve-zipf")},
	{metric{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"}, on("throughput_per_s", "serve-zipf")},
	{metric{name: "serve.evictions_per_kop", unit: "count/kop", better: "lower"}, on("throughput_per_s", "serve-zipf")},
	{metric{name: "serve.solves_per_kop", unit: "count/kop", better: "lower"}, on("throughput_per_s", "serve-zipf")},
	// serve stages: each public stage function replayed on the
	// workload's own request bodies and schedules.
	{metric{name: "serve.decode_us", unit: "us", better: "lower"}, append(on("latency_p50_ms", "serve-hit"), on("cpu_ms_per_op", "serve-hit")...)},
	{metric{name: "serve.digest_us", unit: "us", better: "lower"}, append(on("latency_p50_ms", "serve-hit"), on("cpu_ms_per_op", "serve-hit")...)},
	{metric{name: "serve.encode_us", unit: "us", better: "lower"}, append(on("latency_p50_ms", "serve-hit"), on("cpu_ms_per_op", "serve-hit")...)},
	{metric{name: "serve.render_us", unit: "us", better: "lower"}, on("cpu_ms_per_op", "serve-zipf")},
	{metric{name: "verify.check_us", unit: "us", better: "lower"}, on("cpu_ms_per_op", "serve-zipf")},
	{metric{name: "serve.transport_ms_mean", unit: "ms", better: "lower"}, on("latency_p50_ms", "serve-hit")},
	// The reconciliation residual: handler time the modelled stages do
	// not explain.
	{metric{name: "serve.unattributed_ms", unit: "ms", better: "lower"}, on("latency_p50_ms", "serve-hit")},
	// batch engine, timed from outside.
	{metric{name: "batch.solve_ms_mean", unit: "ms", better: "lower"}, append(on("throughput_per_s", "batch-loose", "batch-tight", "batch-baselines"), on("latency_tail_ms", "serve-zipf")...)},
	{metric{name: "batch.queue_wait_ms_mean", unit: "ms", better: "lower"}, on("latency_p50_ms", "batch-loose")},
	{metric{name: "batch.worker_busy_ratio", unit: "ratio", better: "higher"}, on("throughput_per_s", "batch-loose")},
	{metric{name: "runtime.alloc_kb_per_op", unit: "KiB/op", better: "lower"}, on("cpu_ms_per_op", "batch-loose")},
	{metric{name: "runtime.gc_cycles_per_kop", unit: "count/kop", better: "lower"}, on("cpu_ms_per_op", "serve-hit", "batch-loose")},
	// eas / sched: the engine's existing tracer spans and eas.Result
	// fields, per instance.
	{metric{name: "sched.probes_per_op", unit: "count/op", better: "lower"}, append(on("throughput_per_s", "batch-loose"), on("cpu_ms_per_op", "serve-zipf")...)},
	{metric{name: "sched.probe_ns", unit: "ns", better: "lower"}, on("throughput_per_s", "batch-loose")},
	{metric{name: "eas.step1_ms", unit: "ms", better: "lower"}, on("throughput_per_s", "batch-loose")},
	{metric{name: "eas.step2_ms", unit: "ms", better: "lower"}, on("throughput_per_s", "batch-loose")},
	{metric{name: "eas.step3_ms", unit: "ms", better: "lower"}, on("throughput_per_s", "batch-tight")},
	{metric{name: "eas.passes_per_op", unit: "count/op", better: "lower"}, on("throughput_per_s", "batch-tight")},
	{metric{name: "eas.repair_moves_tried_per_op", unit: "count/op", better: "lower"}, on("throughput_per_s", "batch-tight")},
	{metric{name: "eas.repair_accept_ratio", unit: "ratio", better: "higher"}, on("throughput_per_s", "batch-tight")},
	{metric{name: "eas.fallback_ms", unit: "ms", better: "lower"}, on("latency_tail_ms", "batch-tight")},
	{metric{name: "eas.refine_moves_tried_per_op", unit: "count/op", better: "lower"}, on("latency_tail_ms", "batch-tight")},
	{metric{name: "sched.deadline_miss_ratio", unit: "ratio", better: "lower"}, on("energy_ratio", "batch-tight")},
	// dls / edf.
	{metric{name: "dls.solve_ms_mean", unit: "ms", better: "lower"}, on("throughput_per_s", "batch-baselines")},
	{metric{name: "edf.solve_ms_mean", unit: "ms", better: "lower"}, on("throughput_per_s", "batch-baselines")},
	// trace: what the traced half of the run costs.
	{metric{name: "trace.overhead_ratio", unit: "ratio", better: "lower"}, on("throughput_per_s", "serve-hit", "serve-zipf", "batch-loose", "batch-tight", "batch-baselines")},
}
