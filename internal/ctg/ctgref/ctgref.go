// Package ctgref is the encoding/json reference for ctg's hand-written
// JSON codec, imported by tests only: the graph's JSON form as Go
// types that encoding/json encodes byte for byte as ctg does, the
// reflective decoder ctg used before its one-pass decoder, and a
// field-by-field graph comparison.
package ctgref

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"nocsched/internal/ctg"
)

// Graph is a graph's JSON form. Deadlines are omitted (not serialized
// as MaxInt64) for unconstrained tasks.
type Graph struct {
	Name  string `json:"name"`
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges"`
}

// Task is one task of a Graph.
type Task struct {
	Name     string    `json:"name"`
	ExecTime []int64   `json:"exec_time"`
	Energy   []float64 `json:"energy"`
	Deadline *int64    `json:"deadline,omitempty"`
}

// Edge is one arc of a Graph.
type Edge struct {
	Src    ctg.TaskID `json:"src"`
	Dst    ctg.TaskID `json:"dst"`
	Volume int64      `json:"volume"`
}

// Of returns g's JSON form.
func Of(g *ctg.Graph) Graph {
	r := Graph{Name: g.Name}
	for _, t := range g.Tasks() {
		rt := Task{Name: t.Name, ExecTime: t.ExecTime, Energy: t.Energy}
		if t.HasDeadline() {
			d := t.Deadline
			rt.Deadline = &d
		}
		r.Tasks = append(r.Tasks, rt)
	}
	for _, e := range g.Edges() {
		r.Edges = append(r.Edges, Edge{Src: e.Src, Dst: e.Dst, Volume: e.Volume})
	}
	return r
}

// Unmarshaler decodes a graph value into G with encoding/json, then
// builds it through AddTask, AddEdge and Validate. Used as a field of
// type *Unmarshaler, or decoded into at top level, it accepts and
// rejects exactly as a *ctg.Graph or ctg.Graph does.
type Unmarshaler struct {
	G *ctg.Graph
}

// UnmarshalJSON implements json.Unmarshaler.
func (u *Unmarshaler) UnmarshalJSON(data []byte) error {
	var jg Graph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("ctg: decode: %w", err)
	}
	g := ctg.New(jg.Name)
	for _, jt := range jg.Tasks {
		deadline := ctg.NoDeadline
		if jt.Deadline != nil {
			deadline = *jt.Deadline
		}
		if _, err := g.AddTask(jt.Name, jt.ExecTime, jt.Energy, deadline); err != nil {
			return err
		}
	}
	for _, je := range jg.Edges {
		if _, err := g.AddEdge(je.Src, je.Dst, je.Volume); err != nil {
			return err
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	u.G = g
	return nil
}

// Diff describes the first difference between two graphs, field by
// field (floats bit for bit, so -0 and 0 differ), or returns nil.
func Diff(a, b *ctg.Graph) error {
	if a.Name != b.Name || a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("graph %q (%d tasks, %d edges) vs %q (%d, %d)",
			a.Name, a.NumTasks(), a.NumEdges(), b.Name, b.NumTasks(), b.NumEdges())
	}
	for i := range a.Tasks() {
		ta, tb := a.Task(ctg.TaskID(i)), b.Task(ctg.TaskID(i))
		if ta.ID != tb.ID || ta.Name != tb.Name || ta.Deadline != tb.Deadline ||
			!slices.Equal(ta.ExecTime, tb.ExecTime) || len(ta.Energy) != len(tb.Energy) {
			return fmt.Errorf("task %d: %+v vs %+v", i, *ta, *tb)
		}
		for k := range ta.Energy {
			if math.Float64bits(ta.Energy[k]) != math.Float64bits(tb.Energy[k]) {
				return fmt.Errorf("task %d energy %d: %v vs %v", i, k, ta.Energy[k], tb.Energy[k])
			}
		}
		if !slices.Equal(a.Out(ta.ID), b.Out(tb.ID)) || !slices.Equal(a.In(ta.ID), b.In(tb.ID)) {
			return fmt.Errorf("task %d adjacency: out %v/%v, in %v/%v", i, a.Out(ta.ID), b.Out(tb.ID), a.In(ta.ID), b.In(tb.ID))
		}
	}
	for i := range a.Edges() {
		if ea, eb := a.Edge(ctg.EdgeID(i)), b.Edge(ctg.EdgeID(i)); *ea != *eb {
			return fmt.Errorf("edge %d: %+v vs %+v", i, *ea, *eb)
		}
	}
	return nil
}
