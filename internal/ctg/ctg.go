// Package ctg implements the Communication Task Graph (CTG) of the paper
// (Definition 1): a directed acyclic graph whose vertices are computation
// tasks and whose arcs are control or data dependencies.
//
// Each task t_i carries an array R_i of execution times and an array E_i
// of energy consumptions, one entry per processing element (PE) of the
// target architecture, plus an optional hard deadline d(t_i). Each arc
// c_{i,j} carries a communication volume v(c_{i,j}) in bits; a volume of
// zero denotes a pure control dependency.
package ctg

import (
	"fmt"
	"math"
)

// TaskID identifies a task within a Graph. IDs are dense, starting at 0,
// in order of AddTask calls.
type TaskID int

// EdgeID identifies an arc within a Graph. IDs are dense, starting at 0,
// in order of AddEdge calls.
type EdgeID int

// NoDeadline is the deadline value of a task for which the designer did
// not specify a deadline; per the paper it is "taken equal to infinity".
const NoDeadline int64 = math.MaxInt64

// Task is one computational module of the application (a CTG vertex).
type Task struct {
	ID   TaskID
	Name string

	// ExecTime is the array R_i: ExecTime[k] is the execution time of
	// the task on the k-th PE of the architecture, in abstract time
	// units. A negative entry marks the PE as incapable of executing
	// the task (e.g. a pure-DSP kernel on a tiny control core).
	ExecTime []int64

	// Energy is the array E_i: Energy[k] is the energy consumed when
	// the task executes on the k-th PE, in nanojoules.
	Energy []float64

	// Deadline is the absolute time by which the task must finish, or
	// NoDeadline if unconstrained.
	Deadline int64
}

// HasDeadline reports whether the task carries a designer-specified
// deadline.
func (t *Task) HasDeadline() bool { return t.Deadline != NoDeadline }

// RunnableOn reports whether the task may execute on PE k.
func (t *Task) RunnableOn(k int) bool {
	return k >= 0 && k < len(t.ExecTime) && t.ExecTime[k] >= 0
}

// Edge is a CTG arc c_{src,dst}: task dst cannot start before task src
// has finished and (if Volume > 0) transferred Volume bits to it.
type Edge struct {
	ID     EdgeID
	Src    TaskID
	Dst    TaskID
	Volume int64 // bits; 0 means a pure control dependency
}

// Graph is a Communication Task Graph. The zero value is an empty graph
// ready for use; tasks and edges are added with AddTask and AddEdge.
type Graph struct {
	Name string

	tasks []Task
	edges []Edge

	// succ[i] / pred[i] list the edge IDs leaving / entering task i.
	succ [][]EdgeID
	pred [][]EdgeID
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{Name: name} }

// AddTask appends a task and returns its ID. The execTime and energy
// slices are copied; they must have equal length (one entry per PE).
// deadline may be NoDeadline.
func (g *Graph) AddTask(name string, execTime []int64, energy []float64, deadline int64) (TaskID, error) {
	if err := checkTask(name, execTime, energy, deadline); err != nil {
		return -1, err
	}
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{
		ID:       id,
		Name:     name,
		ExecTime: append([]int64(nil), execTime...),
		Energy:   append([]float64(nil), energy...),
		Deadline: deadline,
	})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id, nil
}

// checkTask is AddTask's validation of one task.
func checkTask(name string, execTime []int64, energy []float64, deadline int64) error {
	if len(execTime) != len(energy) {
		return fmt.Errorf("ctg: task %q: exec-time array has %d entries but energy array has %d",
			name, len(execTime), len(energy))
	}
	if len(execTime) == 0 {
		return fmt.Errorf("ctg: task %q: empty per-PE arrays", name)
	}
	if deadline <= 0 && deadline != NoDeadline {
		return fmt.Errorf("ctg: task %q: non-positive deadline %d", name, deadline)
	}
	runnable := false
	for k, r := range execTime {
		if r >= 0 {
			runnable = true
			if energy[k] < 0 {
				return fmt.Errorf("ctg: task %q: negative energy %g on PE %d", name, energy[k], k)
			}
		}
	}
	if !runnable {
		return fmt.Errorf("ctg: task %q: not runnable on any PE", name)
	}
	return nil
}

// AddEdge appends the arc src -> dst with the given communication volume
// in bits and returns its ID. Parallel edges between the same pair are
// permitted (they model independent messages); self-loops are not.
func (g *Graph) AddEdge(src, dst TaskID, volume int64) (EdgeID, error) {
	if err := g.checkEdge(src, dst, volume); err != nil {
		return -1, err
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Src: src, Dst: dst, Volume: volume})
	g.succ[src] = append(g.succ[src], id)
	g.pred[dst] = append(g.pred[dst], id)
	return id, nil
}

// checkEdge is AddEdge's validation of one arc.
func (g *Graph) checkEdge(src, dst TaskID, volume int64) error {
	if !g.validTask(src) || !g.validTask(dst) {
		return fmt.Errorf("ctg: edge %d->%d references unknown task", src, dst)
	}
	if src == dst {
		return fmt.Errorf("ctg: self-loop on task %d", src)
	}
	if volume < 0 {
		return fmt.Errorf("ctg: edge %d->%d: negative volume %d", src, dst, volume)
	}
	return nil
}

func (g *Graph) validTask(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of arcs in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumPEs returns the length of the per-PE arrays of the graph's tasks
// (the number of PEs the graph is characterized for), or 0 for an empty
// graph.
func (g *Graph) NumPEs() int {
	if len(g.tasks) == 0 {
		return 0
	}
	return len(g.tasks[0].ExecTime)
}

// Task returns the task with the given ID. The returned pointer aliases
// graph storage and must not be mutated by callers.
func (g *Graph) Task(id TaskID) *Task { return &g.tasks[id] }

// Edge returns the arc with the given ID. The returned pointer aliases
// graph storage and must not be mutated by callers.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Tasks returns all tasks in ID order. The slice aliases graph storage.
func (g *Graph) Tasks() []Task { return g.tasks }

// Edges returns all arcs in ID order. The slice aliases graph storage.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of the arcs leaving task id.
func (g *Graph) Out(id TaskID) []EdgeID { return g.succ[id] }

// In returns the IDs of the arcs entering task id.
func (g *Graph) In(id TaskID) []EdgeID { return g.pred[id] }

// Succ returns the distinct successor task IDs of task id, in edge order.
func (g *Graph) Succ(id TaskID) []TaskID {
	return g.neighbors(g.succ[id], func(e *Edge) TaskID { return e.Dst })
}

// Pred returns the distinct predecessor task IDs of task id, in edge order.
func (g *Graph) Pred(id TaskID) []TaskID {
	return g.neighbors(g.pred[id], func(e *Edge) TaskID { return e.Src })
}

// neighbors deduplicates the picked endpoints of edges by scanning the
// output so far: degrees are tiny, so the scan beats a set and the
// result is one allocation.
func (g *Graph) neighbors(edges []EdgeID, pick func(*Edge) TaskID) []TaskID {
	out := make([]TaskID, 0, len(edges))
next:
	for _, eid := range edges {
		t := pick(&g.edges[eid])
		for _, o := range out {
			if o == t {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}

// Sources returns the tasks with no predecessors, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns the tasks with no successors, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TopoOrder returns the task IDs in a topological order (dependencies
// first). It returns an error if the graph contains a cycle, which makes
// it the canonical DAG check.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	for i := range g.tasks {
		indeg[i] = len(g.pred[i])
	}
	// Kahn's algorithm with a FIFO over task IDs keeps the order
	// deterministic for a given graph.
	queue := make([]TaskID, 0, len(g.tasks))
	for i := range g.tasks {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	order := make([]TaskID, 0, len(g.tasks))
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, eid := range g.succ[t] {
			d := g.edges[eid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("ctg: graph %q contains a cycle (%d of %d tasks ordered)",
			g.Name, len(order), len(g.tasks))
	}
	return order, nil
}

// Validate checks structural invariants: the graph is a non-empty DAG,
// every task's per-PE arrays have the same length, and every task can run
// on at least one PE. It returns the first violation found.
func (g *Graph) Validate() error {
	_, err := g.ValidatedOrder()
	return err
}

// ValidatedOrder is Validate returning the TopoOrder its DAG check
// computed, for callers that need both.
func (g *Graph) ValidatedOrder() ([]TaskID, error) {
	if len(g.tasks) == 0 {
		return nil, fmt.Errorf("ctg: graph %q has no tasks", g.Name)
	}
	npe := len(g.tasks[0].ExecTime)
	for i := range g.tasks {
		t := &g.tasks[i]
		if len(t.ExecTime) != npe || len(t.Energy) != npe {
			return nil, fmt.Errorf("ctg: task %d (%q) characterized for %d/%d PEs, want %d",
				t.ID, t.Name, len(t.ExecTime), len(t.Energy), npe)
		}
	}
	return g.TopoOrder()
}

// TotalVolume returns the sum of all edge volumes in bits.
func (g *Graph) TotalVolume() int64 {
	var sum int64
	for i := range g.edges {
		sum += g.edges[i].Volume
	}
	return sum
}

// DeadlineTasks returns the IDs of all tasks with designer-specified
// deadlines, in ID order.
func (g *Graph) DeadlineTasks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.tasks[i].HasDeadline() {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{Name: g.Name}
	cp.tasks = make([]Task, len(g.tasks))
	for i, t := range g.tasks {
		t.ExecTime = append([]int64(nil), t.ExecTime...)
		t.Energy = append([]float64(nil), t.Energy...)
		cp.tasks[i] = t
	}
	cp.edges = append([]Edge(nil), g.edges...)
	cp.succ = make([][]EdgeID, len(g.succ))
	cp.pred = make([][]EdgeID, len(g.pred))
	for i := range g.succ {
		cp.succ[i] = append([]EdgeID(nil), g.succ[i]...)
		cp.pred[i] = append([]EdgeID(nil), g.pred[i]...)
	}
	return cp
}

// ScaleDeadlines returns a copy of the graph with every specified
// deadline multiplied by factor (rounded to the nearest time unit).
// It is the primitive behind the paper's Fig. 7 performance sweep, where
// required frame rates are scaled up and deadlines correspondingly
// shrink (factor = 1/performanceRatio).
func (g *Graph) ScaleDeadlines(factor float64) *Graph {
	cp := g.Clone()
	for i := range cp.tasks {
		t := &cp.tasks[i]
		if t.HasDeadline() {
			d := int64(math.Round(float64(t.Deadline) * factor))
			if d < 1 {
				d = 1
			}
			t.Deadline = d
		}
	}
	return cp
}
