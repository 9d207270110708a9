package ctg

import (
	"fmt"
	"io"

	"nocsched/internal/jsonx"
)

// The JSON form of a graph:
//
//	{"name": "...",
//	 "tasks": [{"name": "...", "exec_time": [...], "energy": [...], "deadline": 123}, ...],
//	 "edges": [{"src": 0, "dst": 1, "volume": 4096}, ...]}
//
// A task without a deadline has no deadline key; a graph without edges
// writes "edges": null.

// AppendJSON appends the graph's JSON form to w; a nil graph appends
// null.
func (g *Graph) AppendJSON(w *jsonx.Writer) {
	if g == nil {
		w.Null()
		return
	}
	w.BeginObject()
	w.Key("name")
	w.String(g.Name)
	w.Key("tasks")
	if len(g.tasks) == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for i := range g.tasks {
			t := &g.tasks[i]
			w.BeginObject()
			w.Key("name")
			w.String(t.Name)
			w.Key("exec_time")
			if t.ExecTime == nil {
				w.Null()
			} else {
				w.BeginArray()
				for _, r := range t.ExecTime {
					w.Int(r)
				}
				w.EndArray()
			}
			w.Key("energy")
			if t.Energy == nil {
				w.Null()
			} else {
				w.BeginArray()
				for _, e := range t.Energy {
					w.Float(e)
				}
				w.EndArray()
			}
			if t.HasDeadline() {
				w.Key("deadline")
				w.Int(t.Deadline)
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("edges")
	if len(g.edges) == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for i := range g.edges {
			e := &g.edges[i]
			w.BeginObject()
			w.Key("src")
			w.Int(int64(e.Src))
			w.Key("dst")
			w.Int(int64(e.Dst))
			w.Key("volume")
			w.Int(e.Volume)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	var w jsonx.Writer
	g.AppendJSON(&w)
	return w.Buf, w.Err()
}

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	d := jsonx.NewDecoder(data)
	fresh, err := DecodeJSON(d)
	if err != nil {
		return err
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("ctg: decode: %w", err)
	}
	*g = *fresh
	return nil
}

// WriteJSON writes the graph to w as indented JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	jw := jsonx.Writer{Indent: true}
	g.AppendJSON(&jw)
	if err := jw.Err(); err != nil {
		return err
	}
	_, err := w.Write(append(jw.Buf, '\n'))
	return err
}

// ReadJSON decodes a graph from r. Bytes after the graph are ignored.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeJSON(jsonx.NewDecoder(data))
}

// DecodeJSON reads one graph value from d in a single pass, straight
// into the graph's task and edge arrays, and validates it: malformed
// graphs (cycles, ragged per-PE arrays, dangling edge endpoints) are
// rejected with AddTask's, AddEdge's and Validate's errors. It accepts
// exactly what encoding/json accepts for a graph, with the same value
// semantics; a null is a graph without tasks.
func DecodeJSON(d *jsonx.Decoder) (*Graph, error) {
	g := new(Graph)
	var sc scratch
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "name", "tasks", "edges") {
		case 0:
			return d.String(&g.Name)
		case 1:
			n, null, err := d.Array(func(i int) error {
				// A task without a deadline key has NoDeadline; so
				// does a never-written element a later null exposes.
				return decodeTask(d, jsonx.Elem(&g.tasks, i, Task{Deadline: NoDeadline}), &sc)
			})
			jsonx.Trim(&g.tasks, n, null)
			return err
		case 2:
			n, null, err := d.Array(func(i int) error {
				return decodeEdge(d, jsonx.Elem(&g.edges, i, Edge{}))
			})
			jsonx.Trim(&g.edges, n, null)
			return err
		}
		return d.Skip()
	})
	if err != nil {
		return nil, fmt.Errorf("ctg: decode: %w", err)
	}
	if err := g.link(); err != nil {
		return nil, err
	}
	return g, nil
}

// scratch holds the per-PE arrays of a task while they are parsed.
type scratch struct {
	ints   []int64
	floats []float64
}

func decodeTask(d *jsonx.Decoder, t *Task, sc *scratch) error {
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "name", "exec_time", "energy", "deadline") {
		case 0:
			return d.String(&t.Name)
		case 1:
			return d.Int64s(&t.ExecTime, &sc.ints)
		case 2:
			return d.Float64s(&t.Energy, &sc.floats)
		case 3:
			if null, err := d.Null(); null || err != nil {
				t.Deadline = NoDeadline
				return err
			}
			return d.Int64(&t.Deadline)
		}
		return d.Skip()
	})
	return err
}

func decodeEdge(d *jsonx.Decoder, e *Edge) error {
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "src", "dst", "volume") {
		case 0:
			return d.Int((*int)(&e.Src))
		case 1:
			return d.Int((*int)(&e.Dst))
		case 2:
			return d.Int64(&e.Volume)
		}
		return d.Skip()
	})
	return err
}

// link validates decoded tasks and edges in the order AddTask and
// AddEdge would, numbers them, builds the adjacency lists and
// validates the whole graph. The lists are carved out of one array,
// each with its length as capacity, so a later AddEdge appends to a
// copy.
func (g *Graph) link() error {
	for i := range g.tasks {
		t := &g.tasks[i]
		if err := checkTask(t.Name, t.ExecTime, t.Energy, t.Deadline); err != nil {
			return err
		}
		t.ID = TaskID(i)
	}
	n := len(g.tasks)
	deg := make([]int, 2*n)
	for i := range g.edges {
		e := &g.edges[i]
		if err := g.checkEdge(e.Src, e.Dst, e.Volume); err != nil {
			return err
		}
		e.ID = EdgeID(i)
		deg[e.Src]++
		deg[n+int(e.Dst)]++
	}
	g.succ = make([][]EdgeID, n)
	g.pred = make([][]EdgeID, n)
	ids := make([]EdgeID, 2*len(g.edges))
	off := 0
	for i, k := range deg {
		if k == 0 {
			continue
		}
		list := ids[off : off : off+k]
		if i < n {
			g.succ[i] = list
		} else {
			g.pred[i-n] = list
		}
		off += k
	}
	for i := range g.edges {
		e := &g.edges[i]
		g.succ[e.Src] = append(g.succ[e.Src], e.ID)
		g.pred[e.Dst] = append(g.pred[e.Dst], e.ID)
	}
	return g.Validate()
}
