package eas

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
	"nocsched/internal/verify/workloadgen"
)

// shapeGraphs generates n graphs of one nocbench workload shape on
// schedd's default platform (the 4x4 heterogeneous XY mesh at 256 bits
// per cycle): the category's suite parameters cycling through its ten
// shapes, resized to tasks and re-deadlined to laxity when positive.
func shapeGraphs(tb testing.TB, c tgff.Category, tasks int, laxity float64, n int) ([]*ctg.Graph, *energy.ACG) {
	tb.Helper()
	spec := noc.PlatformSpec{Topology: "mesh", Width: 4, Height: 4, Routing: "xy", Bandwidth: 256}
	p, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		tb.Fatal(err)
	}
	gs := make([]*ctg.Graph, n)
	for i := range gs {
		params := tgff.SuiteParams(c, i%tgff.SuiteSize, p)
		params.Seed = int64(1<<32 + i)
		params.NumTasks = tasks
		if laxity > 0 {
			params.DeadlineLaxity = laxity
		}
		if gs[i], err = tgff.Generate(params); err != nil {
			tb.Fatal(err)
		}
	}
	return gs, acg
}

// looseGraphs generates n batch-loose-shaped graphs: Category I at
// deadline laxity 3.0.
func looseGraphs(tb testing.TB, tasks, n int) ([]*ctg.Graph, *energy.ACG) {
	return shapeGraphs(tb, tgff.CategoryI, tasks, 3.0, n)
}

// budgetMismatch compares ComputeBudget against referenceBudget at one
// (scale, bandwidth) and describes the first difference: an error text,
// or a Mean, Weight or BD entry that is not bit-identical.
func budgetMismatch(g *ctg.Graph, w WeightFunc, scale float64, bw int64) string {
	got, gotErr := ComputeBudget(g, w, scale, bw)
	want, wantErr := referenceBudget(g, w, scale, bw)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	for i := range want.BD {
		switch {
		case math.Float64bits(got.Mean[i]) != math.Float64bits(want.Mean[i]):
			return fmt.Sprintf("Mean[%d] = %v, reference %v", i, got.Mean[i], want.Mean[i])
		case math.Float64bits(got.Weight[i]) != math.Float64bits(want.Weight[i]):
			return fmt.Sprintf("Weight[%d] = %v, reference %v", i, got.Weight[i], want.Weight[i])
		case got.BD[i] != want.BD[i]:
			return fmt.Sprintf("BD[%d] = %d, reference %d", i, got.BD[i], want.BD[i])
		}
	}
	if len(got.BD) != len(want.BD) || len(got.Mean) != len(want.Mean) || len(got.Weight) != len(want.Weight) {
		return fmt.Sprintf("lengths %d/%d/%d, reference %d", len(got.Mean), len(got.Weight), len(got.BD), len(want.BD))
	}
	return ""
}

// checkBudgetPasses requires ComputeBudget to match the reference at
// every (scale, bandwidth) of ScheduleWith's passes.
func checkBudgetPasses(t *testing.T, name string, g *ctg.Graph, bw int64) {
	t.Helper()
	for _, p := range []struct {
		scale float64
		bw    int64
	}{{1, 0}, {1, bw}, {0.5, bw}, {0, bw}} {
		if msg := budgetMismatch(g, nil, p.scale, p.bw); msg != "" {
			t.Errorf("%s (scale=%g bw=%d): %s", name, p.scale, p.bw, msg)
		}
	}
}

// TestBudgetDifferential holds the flat Step 1 to the
// whole-graph reference, bit for bit, on the golden corpus, the
// conformance corpus at seeds 1-4, the five nocbench shapes, hand-built
// edge cases and a cyclic graph.
func TestBudgetDifferential(t *testing.T) {
	golden, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range golden {
		checkBudgetPasses(t, "golden/"+w.Name, w.Graph, w.Platform.LinkBandwidth)
	}
	for seed := int64(1); seed <= 4; seed++ {
		corpus, err := workloadgen.Corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range corpus {
			checkBudgetPasses(t, fmt.Sprintf("corpus%d/%s", seed, w.Name), w.Graph, w.Platform.LinkBandwidth)
		}
	}
	for _, sh := range []struct {
		name   string
		c      tgff.Category
		tasks  int
		laxity float64
	}{
		{"serve-hit", tgff.CategoryI, 250, 0},
		{"serve-zipf", tgff.CategoryI, 100, 0},
		{"batch-loose", tgff.CategoryI, 500, 3.0},
		{"batch-tight", tgff.CategoryII, 30, 0.95},
		{"batch-baselines", tgff.CategoryI, 300, 0},
	} {
		gs, acg := shapeGraphs(t, sh.c, sh.tasks, sh.laxity, 3)
		for i, g := range gs {
			checkBudgetPasses(t, fmt.Sprintf("%s/%d", sh.name, i), g, acg.Platform().LinkBandwidth)
		}
	}
	for name, g := range handBuiltBudgetGraphs(t) {
		checkBudgetPasses(t, name, g, 64)
	}

	cyc := ctg.New("cyc")
	a := addWeighted(t, cyc, "a", 100, 1, ctg.NoDeadline)
	b := addWeighted(t, cyc, "b", 100, 1, 300)
	cyc.AddEdge(a, b, 0)
	cyc.AddEdge(b, a, 0)
	if _, err := ComputeBudget(cyc, nil, 1, 0); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic graph: error %v, want a cycle error", err)
	}
	checkBudgetPasses(t, "cyclic", cyc, 64)
}

// handBuiltBudgetGraphs are small graphs aimed at the flat path's edge
// cases: deadline tasks that are not sinks (their successors lie past
// them), parallel arcs with different volumes, zero-volume arcs,
// PEs a task cannot run on, all-zero weights, and task IDs that are
// not in topological order.
func handBuiltBudgetGraphs(t *testing.T) map[string]*ctg.Graph {
	t.Helper()
	out := map[string]*ctg.Graph{}

	// a -> b(d) -> c -> e(d), a -> d -> c: b is a deadline task with a
	// successor, so b's cone must ignore the arc b -> c.
	g := ctg.New("non-sink")
	a := addWeighted(t, g, "a", 100, 3, ctg.NoDeadline)
	b := addWeighted(t, g, "b", 120, 1, 400)
	c := addWeighted(t, g, "c", 80, 2, ctg.NoDeadline)
	d := addWeighted(t, g, "d", 60, 5, ctg.NoDeadline)
	e := addWeighted(t, g, "e", 90, 1, 900)
	g.AddEdge(a, b, 512)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, e, 300)
	g.AddEdge(a, d, 64)
	g.AddEdge(d, c, 128)
	out["non-sink"] = g

	// Two arcs between the same pair, the heavier second, plus a
	// zero-volume control arc on an equal-length side path.
	g = ctg.New("parallel")
	a = addWeighted(t, g, "a", 50, 2, ctg.NoDeadline)
	b = addWeighted(t, g, "b", 50, 2, ctg.NoDeadline)
	c = addWeighted(t, g, "c", 50, 2, 600)
	g.AddEdge(a, b, 64)
	g.AddEdge(a, b, 4096)
	g.AddEdge(b, c, 0)
	g.AddEdge(a, c, 0)
	out["parallel"] = g

	// Incapable PEs (negative exec times), a task runnable on one PE
	// only (zero weight), and IDs added in reverse topological order.
	g = ctg.New("incapable")
	sink, _ := g.AddTask("sink", []int64{-1, 40, 60}, []float64{0, 7, 3}, 500)
	mid, _ := g.AddTask("mid", []int64{30, -1, -1}, []float64{2, 0, 0}, ctg.NoDeadline)
	src, _ := g.AddTask("src", []int64{20, 25, -1}, []float64{5, 9, 0}, 200)
	g.AddEdge(src, mid, 100)
	g.AddEdge(mid, sink, 0)
	g.AddEdge(src, sink, 700)
	out["incapable"] = g

	// A homogeneous platform: every weight is zero, so slack falls back
	// to time-proportional shares. b carries a deadline but is not a
	// sink, and one task is isolated.
	g = ctg.New("homogeneous")
	mk := func(name string, exec, deadline int64) ctg.TaskID {
		id, err := g.AddTask(name, []int64{exec, exec}, []float64{1, 1}, deadline)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a = mk("a", 100, ctg.NoDeadline)
	b = mk("b", 300, 800)
	c = mk("c", 10, 50)
	mk("lone", 40, ctg.NoDeadline)
	g.AddEdge(a, b, 256)
	g.AddEdge(b, c, 0)
	out["homogeneous"] = g

	// Tight deadlines: every slack clamps to zero.
	g = ctg.New("tight")
	a = addWeighted(t, g, "a", 200, 1, 100)
	b = addWeighted(t, g, "b", 200, 4, 300)
	g.AddEdge(a, b, 999)
	out["tight"] = g
	return out
}

// TestBudgetConcurrentScratch: goroutines solving different graphs at
// once, as batch workers do, each get their own pooled scratch; every
// budget must still match the reference.
func TestBudgetConcurrentScratch(t *testing.T) {
	gs, acg := shapeGraphs(t, tgff.CategoryI, 100, 0, 4)
	bw := acg.Platform().LinkBandwidth
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				g := gs[(w+i)%len(gs)]
				if msg := budgetMismatch(g, nil, float64(i%3)/2, bw); msg != "" {
					t.Errorf("worker %d, graph %s: %s", w, g.Name, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBudgetRejectsInfiniteWeight: energies of [0, 1.7e308] are finite,
// but their variance overflows to +Inf. The reference let that weight
// through and priced the finite-weight successor's share as
// slack*Inf/Inf = NaN, which rounds to the minimum int64.
func TestBudgetRejectsInfiniteWeight(t *testing.T) {
	g := ctg.New("inf")
	a, err := g.AddTask("a", []int64{10, 20}, []float64{0, 1.7e308}, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AddTask("b", []int64{10, 20}, []float64{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(a, b, 0)
	if ref, err := referenceBudget(g, nil, 1, 0); err != nil || ref.BD[b] != math.MinInt64 {
		t.Fatalf("reference: BD[b] = %v, err %v; the test graph no longer shows the fault", ref, err)
	}
	_, err = ComputeBudget(g, nil, 1, 0)
	if err == nil || err.Error() != "eas: task 0: invalid weight +Inf" {
		t.Fatalf("err = %v, want the invalid-weight error for task 0", err)
	}
}

// TestBudgetRejectsOverflowingWeightSum: weights of 1e308 are finite,
// but on a two-task chain their path sum overflows to +Inf and the
// share slack*fwdW/totalW becomes NaN, which the reference rounds to
// the minimum int64 with no error. On a lone task the sum stays finite
// while slack*fwdW overflows, so the share is +Inf. Both must fail
// with an error instead. The reference's garbage keeps these graphs
// out of the differential.
func TestBudgetRejectsOverflowingWeightSum(t *testing.T) {
	exec, energies := []int64{10, 14}, []float64{0, 1e154} // weight 4 * 2.5e307
	chain := ctg.New("overflow-chain")
	a, err := chain.AddTask("a", exec, energies, ctg.NoDeadline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain.AddTask("b", exec, energies, 100)
	if err != nil {
		t.Fatal(err)
	}
	chain.AddEdge(a, b, 0)
	if ref, err := referenceBudget(chain, nil, 1, 0); err != nil || ref.BD[a] != math.MinInt64 || ref.BD[b] != math.MinInt64 {
		t.Fatalf("reference: %v, err %v; the chain no longer shows the fault", ref, err)
	}
	lone := ctg.New("overflow-lone")
	if _, err := lone.AddTask("a", exec, energies, 100); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*ctg.Graph{chain, lone} {
		for _, scale := range []float64{1, 0} {
			got, err := ComputeBudget(g, nil, scale, 0)
			if err == nil || !strings.Contains(err.Error(), "invalid weight share") {
				t.Errorf("%s scale %g: budget %v, err %v; want an invalid weight share error", g.Name, scale, got, err)
			}
		}
	}
}

// randomBudgetGraph builds a random DAG of up to 48 tasks on 1-4 PEs.
// Task IDs are a random permutation of topological positions, some PEs
// cannot run some tasks, arcs may be parallel or zero-volume, and any
// task (sinks or not) may carry a deadline.
func randomBudgetGraph(seed int64, size uint8) *ctg.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(size)%48
	npe := 1 + rng.Intn(4)
	g := ctg.New("fuzz")
	perm := rng.Perm(n) // perm[id] = topological rank
	for range n {
		exec := make([]int64, npe)
		en := make([]float64, npe)
		for k := range exec {
			exec[k] = int64(rng.Intn(60))
			if rng.Intn(6) == 0 {
				exec[k] = -1
			}
			en[k] = rng.Float64() * 100
		}
		deadline := ctg.NoDeadline
		if rng.Intn(3) == 0 {
			deadline = int64(rng.Intn(60 * n))
		}
		g.AddTask("t", exec, en, deadline)
	}
	byRank := make([]ctg.TaskID, n)
	for id, r := range perm {
		byRank[r] = ctg.TaskID(id)
	}
	for j := 1; j < n; j++ {
		for k := rng.Intn(4); k > 0; k-- {
			i := rng.Intn(j)
			vol := int64(0)
			if rng.Intn(4) > 0 {
				vol = int64(rng.Intn(2048))
			}
			g.AddEdge(byRank[i], byRank[j], vol)
		}
	}
	return g
}

// FuzzBudgetDifferential holds the flat Step 1 to the
// whole-graph reference on random DAGs, at scales in [0, 1] and
// communication bandwidths 0, 1 and 64, under each weight function.
func FuzzBudgetDifferential(f *testing.F) {
	for i := range 8 {
		f.Add(int64(i), uint8(5*i+1), float64(i)/7, uint8(i))
	}
	f.Add(int64(99), uint8(47), 1.0, uint8(2))
	// 11 tasks, one of them a deadline task with no arcs: its cone is
	// itself.
	f.Add(int64(114), uint8(10), 1.0, uint8(0))
	// 37 tasks with a chain of six deadline tasks, each in the ancestor
	// cone of the next: nested cones share tasks across deadlines.
	f.Add(int64(106), uint8(40), 0.5, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, scale float64, sel uint8) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		if scale = math.Abs(scale); scale > 1 {
			scale = math.Mod(scale, 1)
		}
		bw := []int64{0, 1, 64}[sel%3]
		w := []WeightFunc{nil, WeightVarE, WeightUniform}[sel/3%3]
		g := randomBudgetGraph(seed, size)
		if msg := budgetMismatch(g, w, scale, bw); msg != "" {
			t.Fatalf("seed %d size %d scale %g bw %d weight %d: %s", seed, size, scale, bw, sel/3%3, msg)
		}
	})
}
