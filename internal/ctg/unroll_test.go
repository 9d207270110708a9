package ctg

import (
	"strings"
	"testing"
)

func unrollBase(t *testing.T) (*Graph, [3]TaskID) {
	t.Helper()
	g := New("period")
	var ids [3]TaskID
	for i, spec := range []struct {
		name string
		dl   int64
	}{{"in", NoDeadline}, {"work", NoDeadline}, {"out", 1000}} {
		id, err := g.AddTask(spec.name, []int64{10, 20}, []float64{1, 2}, spec.dl)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	g.AddEdge(ids[0], ids[1], 100)
	g.AddEdge(ids[1], ids[2], 100)
	return g, ids
}

func TestUnrollStructure(t *testing.T) {
	g, ids := unrollBase(t)
	u, err := Unroll(g, 3, 500, []CrossDep{{From: ids[1], To: ids[1], Volume: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.NumTasks() != 9 {
		t.Errorf("tasks = %d, want 9", u.NumTasks())
	}
	// 2 intra edges x 3 iterations + 2 cross edges.
	if u.NumEdges() != 8 {
		t.Errorf("edges = %d, want 8", u.NumEdges())
	}
	// Deadlines offset by i*period.
	for i, want := range []int64{1000, 1500, 2000} {
		id := TaskID(i*3) + ids[2]
		if u.Task(id).Deadline != want {
			t.Errorf("iteration %d deadline = %d, want %d", i, u.Task(id).Deadline, want)
		}
	}
	// Unconstrained tasks stay unconstrained.
	if u.Task(ids[0]).HasDeadline() || u.Task(TaskID(3)+ids[0]).HasDeadline() {
		t.Error("unconstrained task acquired a deadline")
	}
	// Naming.
	if u.Task(TaskID(3)+ids[1]).Name != "work#1" {
		t.Errorf("name = %q", u.Task(TaskID(3)+ids[1]).Name)
	}
	// The cross dependency links work#0 -> work#1.
	found := false
	for _, e := range u.Edges() {
		if u.Task(e.Src).Name == "work#0" && u.Task(e.Dst).Name == "work#1" {
			found = true
			if e.Volume != 64 {
				t.Errorf("cross volume = %d", e.Volume)
			}
		}
	}
	if !found {
		t.Error("cross dependency missing")
	}
}

func TestUnrollValidation(t *testing.T) {
	g, ids := unrollBase(t)
	if _, err := Unroll(g, 0, 100, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Unroll(g, 2, -1, nil); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := Unroll(g, 2, 100, []CrossDep{{From: 99, To: ids[0]}}); err == nil {
		t.Error("bad cross source accepted")
	}
	if _, err := Unroll(g, 2, 100, []CrossDep{{From: ids[0], To: ids[1], Volume: -1}}); err == nil {
		t.Error("negative cross volume accepted")
	}
	// Cyclic base graph rejected via Validate.
	cyc := New("cyc")
	a, _ := cyc.AddTask("a", []int64{1}, []float64{1}, NoDeadline)
	b, _ := cyc.AddTask("b", []int64{1}, []float64{1}, NoDeadline)
	cyc.AddEdge(a, b, 0)
	cyc.AddEdge(b, a, 0)
	if _, err := Unroll(cyc, 2, 100, nil); err == nil {
		t.Error("cyclic base accepted")
	}
}

func TestUnrollSingleIterationIsCopy(t *testing.T) {
	g, _ := unrollBase(t)
	u, err := Unroll(g, 1, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumTasks() != g.NumTasks() || u.NumEdges() != g.NumEdges() {
		t.Error("single unroll changed structure")
	}
	if !strings.HasSuffix(u.Name, "-x1") {
		t.Errorf("name = %q", u.Name)
	}
}
