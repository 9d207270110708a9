package ctg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDiamond returns the four-task diamond a->{b,c}->d used by several
// tests.
func buildDiamond(t *testing.T) (*Graph, [4]TaskID) {
	t.Helper()
	g := New("diamond")
	var ids [4]TaskID
	for i, name := range []string{"a", "b", "c", "d"} {
		id, err := g.AddTask(name, []int64{10, 20}, []float64{1, 2}, NoDeadline)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, err := g.AddEdge(ids[e[0]], ids[e[1]], 100); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestAddTaskValidation(t *testing.T) {
	g := New("v")
	if _, err := g.AddTask("bad", []int64{10}, []float64{1, 2}, NoDeadline); err == nil {
		t.Error("mismatched array lengths should fail")
	}
	if _, err := g.AddTask("bad", nil, nil, NoDeadline); err == nil {
		t.Error("empty arrays should fail")
	}
	if _, err := g.AddTask("bad", []int64{10}, []float64{1}, 0); err == nil {
		t.Error("zero deadline should fail")
	}
	if _, err := g.AddTask("bad", []int64{10}, []float64{1}, -5); err == nil {
		t.Error("negative deadline should fail")
	}
	if _, err := g.AddTask("bad", []int64{-1, -1}, []float64{1, 1}, NoDeadline); err == nil {
		t.Error("task runnable nowhere should fail")
	}
	if _, err := g.AddTask("bad", []int64{10, -1}, []float64{-3, 1}, NoDeadline); err == nil {
		t.Error("negative energy on a runnable PE should fail")
	}
	// Negative energy on an *incapable* PE is tolerated (don't-care).
	if _, err := g.AddTask("ok", []int64{10, -1}, []float64{1, -1}, NoDeadline); err != nil {
		t.Errorf("don't-care energy rejected: %v", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New("e")
	a, _ := g.AddTask("a", []int64{1}, []float64{1}, NoDeadline)
	b, _ := g.AddTask("b", []int64{1}, []float64{1}, NoDeadline)
	if _, err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("unknown endpoint should fail")
	}
	if _, err := g.AddEdge(a, b, -1); err == nil {
		t.Error("negative volume should fail")
	}
	if _, err := g.AddEdge(a, b, 0); err != nil {
		t.Errorf("control edge should be allowed: %v", err)
	}
	// Parallel edges model independent messages.
	if _, err := g.AddEdge(a, b, 5); err != nil {
		t.Errorf("parallel edge rejected: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	g, _ := buildDiamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %d->%d violates topological order", e.Src, e.Dst)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("cyc")
	a, _ := g.AddTask("a", []int64{1}, []float64{1}, NoDeadline)
	b, _ := g.AddTask("b", []int64{1}, []float64{1}, NoDeadline)
	c, _ := g.AddTask("c", []int64{1}, []float64{1}, NoDeadline)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed the cycle")
	}
}

func TestSourcesSinksDegrees(t *testing.T) {
	g, ids := buildDiamond(t)
	if src := g.Sources(); len(src) != 1 || src[0] != ids[0] {
		t.Errorf("Sources = %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != ids[3] {
		t.Errorf("Sinks = %v", snk)
	}
	if succ := g.Succ(ids[0]); len(succ) != 2 {
		t.Errorf("Succ(a) = %v", succ)
	}
	if pred := g.Pred(ids[3]); len(pred) != 2 {
		t.Errorf("Pred(d) = %v", pred)
	}
	if g.NumPEs() != 2 {
		t.Errorf("NumPEs = %d", g.NumPEs())
	}
	if g.TotalVolume() != 400 {
		t.Errorf("TotalVolume = %d", g.TotalVolume())
	}
}

func TestSuccDedup(t *testing.T) {
	g := New("dup")
	a, _ := g.AddTask("a", []int64{1}, []float64{1}, NoDeadline)
	b, _ := g.AddTask("b", []int64{1}, []float64{1}, NoDeadline)
	g.AddEdge(a, b, 1)
	g.AddEdge(a, b, 2)
	if succ := g.Succ(a); len(succ) != 1 {
		t.Errorf("Succ should deduplicate parallel edges: %v", succ)
	}
	if out := g.Out(a); len(out) != 2 {
		t.Errorf("Out should list both parallel edges: %v", out)
	}
}

// TestNeighborsOrderWithParallelEdges pins Pred/Succ on interleaved
// parallel edges: each neighbor appears once, at its first edge.
func TestNeighborsOrderWithParallelEdges(t *testing.T) {
	g := New("parallel")
	var ids [5]TaskID
	for i := range ids {
		ids[i], _ = g.AddTask(string(rune('a'+i)), []int64{1}, []float64{1}, NoDeadline)
	}
	x := ids[4]
	for _, src := range []int{2, 0, 2, 1, 0, 2, 1} {
		if _, err := g.AddEdge(ids[src], x, int64(src)); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range []int{3, 1, 3, 3, 0} {
		if _, err := g.AddEdge(ids[2], ids[dst], 1); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, got []TaskID, want ...TaskID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	check("Pred(x)", g.Pred(x), ids[2], ids[0], ids[1])
	check("Succ(c)", g.Succ(ids[2]), x, ids[3], ids[1], ids[0])
	check("Pred(d)", g.Pred(ids[3]), ids[2])
	check("Pred(a)", g.Pred(ids[0]), ids[2])
	check("Succ(x)", g.Succ(x))
}

func TestCloneIndependence(t *testing.T) {
	g, ids := buildDiamond(t)
	cp := g.Clone()
	cp.Task(ids[0]).ExecTime[0] = 999
	cp.Task(ids[0]).Deadline = 123
	if g.Task(ids[0]).ExecTime[0] == 999 {
		t.Error("clone shares ExecTime storage")
	}
	if g.Task(ids[0]).Deadline == 123 {
		t.Error("clone shares task metadata")
	}
	if _, err := cp.AddEdge(ids[0], ids[3], 1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == cp.NumEdges() {
		t.Error("clone shares edge storage")
	}
}

func TestScaleDeadlines(t *testing.T) {
	g := New("sd")
	a, _ := g.AddTask("a", []int64{10}, []float64{1}, 1000)
	b, _ := g.AddTask("b", []int64{10}, []float64{1}, NoDeadline)
	g.AddEdge(a, b, 0)

	half := g.ScaleDeadlines(0.5)
	if d := half.Task(a).Deadline; d != 500 {
		t.Errorf("scaled deadline = %d, want 500", d)
	}
	if half.Task(b).Deadline != NoDeadline {
		t.Error("unconstrained task acquired a deadline")
	}
	// Scaling to nothing clamps at 1, never 0 or negative.
	tiny := g.ScaleDeadlines(1e-9)
	if d := tiny.Task(a).Deadline; d != 1 {
		t.Errorf("clamped deadline = %d, want 1", d)
	}
	// The original graph is untouched.
	if g.Task(a).Deadline != 1000 {
		t.Error("ScaleDeadlines mutated the receiver")
	}
}

func TestDeadlineTasks(t *testing.T) {
	g, ids := buildDiamond(t)
	if dl := g.DeadlineTasks(); len(dl) != 0 {
		t.Errorf("unexpected deadline tasks %v", dl)
	}
	g.Task(ids[3]).Deadline = 400
	if dl := g.DeadlineTasks(); len(dl) != 1 || dl[0] != ids[3] {
		t.Errorf("DeadlineTasks = %v", dl)
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New("prop")
	ids := make([]TaskID, n)
	for i := 0; i < n; i++ {
		ids[i], _ = g.AddTask("t", []int64{int64(1 + rng.Intn(50))}, []float64{rng.Float64() * 10}, NoDeadline)
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			g.AddEdge(ids[rng.Intn(i)], ids[i], int64(rng.Intn(1000)))
		}
	}
	return g
}

// Property: topological order exists for edge-forward random graphs and
// respects every edge.
func TestQuickTopoProperties(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%40) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		order, err := g.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := make(map[TaskID]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
