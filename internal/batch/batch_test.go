package batch

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/verify"
	"nocsched/internal/verify/workloadgen"
)

// corpusInstances builds a mixed-algorithm instance list from the
// workloadgen corpus: every workload runs under each of the three
// schedulers, which also makes consecutive instances on one worker
// alternate graphs and exercise Builder.Reset across shapes.
func corpusInstances(t *testing.T, seed int64) []Instance {
	t.Helper()
	ws, err := workloadgen.Corpus(seed)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	var instances []Instance
	for _, w := range ws {
		for _, algo := range []string{AlgoEAS, AlgoEDF, AlgoDLS} {
			instances = append(instances, Instance{
				Name:      w.Name + "/" + algo,
				Graph:     w.Graph,
				ACG:       w.ACG,
				Algorithm: algo,
			})
		}
	}
	return instances
}

// serialReference schedules one instance with a fresh builder through
// the plain serial entry points — the ground truth the engine's
// reuse-everything path must match bit for bit.
func serialReference(t testing.TB, inst Instance) *sched.Schedule {
	t.Helper()
	switch inst.Algorithm {
	case AlgoEAS:
		r, err := eas.Schedule(inst.Graph, inst.ACG, inst.EAS)
		if err != nil {
			t.Fatalf("eas.Schedule(%s): %v", inst.Name, err)
		}
		return r.Schedule
	case AlgoEDF:
		s, err := edf.Schedule(inst.Graph, inst.ACG)
		if err != nil {
			t.Fatalf("edf.Schedule(%s): %v", inst.Name, err)
		}
		return s
	case AlgoDLS:
		s, err := dls.Schedule(inst.Graph, inst.ACG)
		if err != nil {
			t.Fatalf("dls.Schedule(%s): %v", inst.Name, err)
		}
		return s
	}
	t.Fatalf("unknown algorithm %q", inst.Algorithm)
	return nil
}

// TestDeterministicAcrossWorkers is the batch determinism oracle: the
// engine must produce bit-identical schedules (sched.Diff) at worker
// counts 1, 2, and 8, and each must match the fresh-builder serial
// reference — proving that neither instance-level parallelism nor
// builder reuse nor shared route plans changes a single decision.
func TestDeterministicAcrossWorkers(t *testing.T) {
	instances := corpusInstances(t, 42)
	refs := make([]*sched.Schedule, len(instances))
	for i, inst := range instances {
		refs[i] = serialReference(t, inst)
	}
	for _, workers := range []int{1, 2, 8} {
		eng := New(Options{Workers: workers})
		results, err := eng.Run(context.Background(), instances)
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if len(results) != len(instances) {
			t.Fatalf("workers=%d: %d results for %d instances", workers, len(results), len(instances))
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, r.Index)
			}
			if r.Name != instances[i].Name {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, r.Name, instances[i].Name)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, r.Name, r.Err)
			}
			if d := sched.Diff(refs[i], r.Schedule); d != "" {
				t.Errorf("workers=%d: %s diverges from serial reference:\n%s", workers, r.Name, d)
			}
			if r.Algorithm == AlgoEAS && r.EAS == nil {
				t.Errorf("workers=%d: %s: missing EAS result", workers, r.Name)
			}
		}
	}
}

// TestReuseMatchesFresh runs the same instance list through one engine
// twice on a single worker. The second pass schedules every instance
// through already-warm builders (pure Reset reuse, shared plans, warm
// scratch); its schedules must be bit-identical to the first pass.
func TestReuseMatchesFresh(t *testing.T) {
	instances := corpusInstances(t, 7)
	eng := New(Options{Workers: 1})
	first, err := eng.Run(context.Background(), instances)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	second, err := eng.Run(context.Background(), instances)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	for i := range instances {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", instances[i].Name, first[i].Err, second[i].Err)
		}
		if d := sched.Diff(first[i].Schedule, second[i].Schedule); d != "" {
			t.Errorf("%s: warm pass diverges from cold pass:\n%s", instances[i].Name, d)
		}
	}
}

// TestVerifySpotChecks feeds a seeded sample of batch-produced
// schedules through the structural oracle: batch reuse must not
// produce schedules that merely diff-match but violate the paper's
// invariants. Deadline findings are legitimate on the corpus's
// infeasible workloads (DLS ignores deadlines); everything else gates.
func TestVerifySpotChecks(t *testing.T) {
	instances := corpusInstances(t, 99)
	eng := New(Options{Workers: 2})
	results, err := eng.Run(context.Background(), instances)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Seeded sample: every third result, fixed offset.
	for i := 1; i < len(results); i += 3 {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		rep := verify.Check(r.Schedule)
		if structural := len(rep.Structural()); structural > 0 {
			t.Errorf("%s: %d structural oracle findings:\n%s", r.Name, structural, rep.String())
		}
	}
}

// TestRunOrderWithStream drives the Stream API directly with a queue
// much smaller than the instance count, checking backpressure admission
// and strict submission-order delivery.
func TestRunOrderWithStream(t *testing.T) {
	instances := corpusInstances(t, 3)
	eng := New(Options{Workers: 4, QueueDepth: 2})
	st := eng.Stream(context.Background())
	go func() {
		defer st.Close()
		for _, inst := range instances {
			if err := st.Submit(inst); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
		}
	}()
	next := 0
	for r := range st.Results() {
		if r.Index != next {
			t.Fatalf("result index %d, want %d", r.Index, next)
		}
		next++
	}
	if next != len(instances) {
		t.Fatalf("drained %d results, want %d", next, len(instances))
	}
	if st.Submitted() != len(instances) {
		t.Fatalf("Submitted() = %d, want %d", st.Submitted(), len(instances))
	}
}

// TestSubmitAfterClose gates the single-producer contract.
func TestSubmitAfterClose(t *testing.T) {
	eng := New(Options{Workers: 1})
	st := eng.Stream(context.Background())
	st.Close()
	if err := st.Submit(Instance{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	for range st.Results() {
		t.Fatal("unexpected result")
	}
}

// TestCancellation cancels mid-stream: Submit must fail with the
// context's error, already-admitted instances drain as results (some
// possibly carrying ctx.Err()), and Run surfaces the cancellation.
func TestCancellation(t *testing.T) {
	instances := corpusInstances(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Workers: 2})
	results, err := eng.Run(ctx, instances)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err=%v, want context.Canceled", err)
	}
	// Nothing was admitted after the cancel, so at most a few results
	// exist, and any that do must carry the context's error.
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: err=%v", r.Index, r.Err)
		}
	}

	// Cancel after admission: every admitted instance still yields a
	// result, preserving result-per-submission accounting.
	ctx2, cancel2 := context.WithCancel(context.Background())
	st := eng.Stream(ctx2)
	// Admit only up to the queue's depth so Submit cannot block while
	// nothing drains Results yet (the producer and consumer share this
	// goroutine).
	admitted := 0
	for _, inst := range instances[:4] {
		if err := st.Submit(inst); err != nil {
			break
		}
		admitted++
	}
	cancel2()
	st.Close()
	drained := 0
	for range st.Results() {
		drained++
	}
	if drained != admitted {
		t.Fatalf("drained %d results for %d admitted instances", drained, admitted)
	}
}

// TestUnknownAlgorithm isolates a bad instance: it errors, its
// neighbors schedule normally, and the error counter ticks.
func TestUnknownAlgorithm(t *testing.T) {
	ws, err := workloadgen.Corpus(13)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	w := ws[0]
	col := telemetry.NewCollector(nil)
	eng := New(Options{Workers: 2, Telemetry: col})
	instances := []Instance{
		{Name: "ok-1", Graph: w.Graph, ACG: w.ACG, Algorithm: AlgoEDF},
		{Name: "bad", Graph: w.Graph, ACG: w.ACG, Algorithm: "simulated-annealing"},
		{Name: "ok-2", Graph: w.Graph, ACG: w.ACG, Algorithm: AlgoDLS},
	}
	results, err := eng.Run(context.Background(), instances)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("neighbor errs: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || results[1].Schedule != nil {
		t.Fatalf("bad instance: err=%v schedule=%v", results[1].Err, results[1].Schedule)
	}
	snap := col.R().Snapshot()
	if got := metricValue(t, snap, MetricErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricErrors, got)
	}
	if got := metricValue(t, snap, MetricInstances); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricInstances, got)
	}
	if got := metricValue(t, snap, MetricQueueDepth); got != 0 {
		t.Fatalf("%s = %d, want 0 after drain", MetricQueueDepth, got)
	}
}

// TestDefaultAlgorithmIsEAS checks the empty-Algorithm default.
func TestDefaultAlgorithmIsEAS(t *testing.T) {
	ws, err := workloadgen.Corpus(21)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	w := ws[0]
	eng := New(Options{Workers: 1})
	results, err := eng.Run(context.Background(), []Instance{{Name: "default", Graph: w.Graph, ACG: w.ACG}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("default run: %v", r.Err)
	}
	if r.Algorithm != AlgoEAS || r.EAS == nil {
		t.Fatalf("default algorithm = %q (EAS result %v), want eas", r.Algorithm, r.EAS)
	}
	ref, err := eas.Schedule(w.Graph, w.ACG, eas.Options{})
	if err != nil {
		t.Fatalf("eas.Schedule: %v", err)
	}
	if d := sched.Diff(ref.Schedule, r.Schedule); d != "" {
		t.Fatalf("default run diverges from eas.Schedule:\n%s", d)
	}
}

// TestPlanCacheSharesPerACG pins the per-ACG plan cache: same ACG,
// same plan pointer; distinct ACGs, distinct plans.
func TestPlanCacheSharesPerACG(t *testing.T) {
	ws, err := workloadgen.Corpus(31)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	eng := New(Options{})
	if p1, p2 := eng.Plan(ws[0].ACG), eng.Plan(ws[0].ACG); p1 != p2 {
		t.Fatal("same ACG produced two distinct plans")
	}
	var other *workloadgen.Workload
	for i := range ws[1:] {
		if ws[i+1].ACG != ws[0].ACG {
			other = &ws[i+1]
			break
		}
	}
	if other != nil && eng.Plan(ws[0].ACG) == eng.Plan(other.ACG) {
		t.Fatal("distinct ACGs share one plan")
	}
}

// TestTrySubmitQueueFull pins the typed backpressure contract: a full
// admission queue yields ErrQueueFull (retryable, 429 territory),
// while a cancelled stream yields the context's error (terminal, 503
// territory) — never the other way around.
func TestTrySubmitQueueFull(t *testing.T) {
	insts := corpusInstances(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Options{Workers: 1, QueueDepth: 2})
	st := eng.Stream(ctx)
	// Fill the 2-deep queue faster than the single worker drains it:
	// non-blocking submits outpace real scheduling work, so ErrQueueFull
	// must appear within a handful of attempts.
	var sawFull bool
	for i := 0; i < 64; i++ {
		err := st.TrySubmit(insts[i%len(insts)])
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("TrySubmit error = %v, want ErrQueueFull", err)
		}
		sawFull = true
		break
	}
	if !sawFull {
		t.Fatal("never saw ErrQueueFull after 64 non-blocking submits into a 2-deep queue")
	}
	// Cancellation converts rejections to the context's error — even
	// while the queue is still full.
	cancel()
	err := st.TrySubmit(insts[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TrySubmit after cancel = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("cancelled TrySubmit must not report ErrQueueFull")
	}
	st.Close()
	for range st.Results() {
	}
	// And after Close, the error is ErrClosed.
	if err := st.TrySubmit(insts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close = %v, want ErrClosed", err)
	}
}

// TestTrySubmitDelivers confirms TrySubmit-admitted instances flow to
// Results exactly like Submit-admitted ones (ordering included).
func TestTrySubmitDelivers(t *testing.T) {
	insts := corpusInstances(t, 19)[:4]
	eng := New(Options{Workers: 2, QueueDepth: 8})
	st := eng.Stream(context.Background())
	admitted := 0
	for _, inst := range insts {
		if err := st.TrySubmit(inst); err != nil {
			t.Fatalf("TrySubmit: %v", err)
		}
		admitted++
	}
	st.Close()
	next := 0
	for r := range st.Results() {
		if r.Index != next {
			t.Fatalf("result index %d, want %d", r.Index, next)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if d := sched.Diff(serialReference(t, insts[r.Index]), r.Schedule); d != "" {
			t.Fatalf("%s diverged from serial reference:\n%s", r.Name, d)
		}
		next++
	}
	if next != admitted {
		t.Fatalf("delivered %d results for %d admissions", next, admitted)
	}
}

// TestDropPlan pins the daemon-facing eviction hook: dropping an ACG
// releases its plan (a fresh Plan call builds a new one) and dropping
// an unknown ACG is a no-op.
func TestDropPlan(t *testing.T) {
	ws, err := workloadgen.Corpus(37)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	eng := New(Options{})
	p1 := eng.Plan(ws[0].ACG)
	eng.DropPlan(ws[0].ACG)
	if p2 := eng.Plan(ws[0].ACG); p1 == p2 {
		t.Fatal("DropPlan did not release the cached plan")
	}
	eng.DropPlan(ws[0].ACG)
	eng.DropPlan(ws[0].ACG) // idempotent, unknown-after-drop is fine
}

func metricValue(t *testing.T, snap telemetry.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == name {
			return int64(g.Value)
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

// ExampleEngine_Run demonstrates the batch API end to end.
func ExampleEngine_Run() {
	ws, err := workloadgen.Corpus(1)
	if err != nil {
		panic(err)
	}
	eng := New(Options{Workers: 2})
	results, err := eng.Run(context.Background(), []Instance{
		{Name: "edf", Graph: ws[0].Graph, ACG: ws[0].ACG, Algorithm: AlgoEDF},
		{Name: "dls", Graph: ws[0].Graph, ACG: ws[0].ACG, Algorithm: AlgoDLS},
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Println(r.Index, r.Name, r.Err == nil)
	}
	// Output:
	// 0 edf true
	// 1 dls true
}
