package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/jsonx"
)

// jsonSchedule is the exported form of a schedule, as ReadJSON reads
// it and AppendJSON writes it: placements only (the graph and platform
// are referenced by name, not embedded — a schedule is meaningless
// without the problem instance it was built for, and callers re-derive
// routes from the platform on import).
type jsonSchedule struct {
	Algorithm string            `json:"algorithm"`
	Graph     string            `json:"graph"`
	Platform  string            `json:"platform"`
	Tasks     []jsonPlacement   `json:"tasks"`
	Trans     []jsonTransaction `json:"transactions"`
}

type jsonPlacement struct {
	Task  ctg.TaskID `json:"task"`
	Name  string     `json:"name"`
	PE    int        `json:"pe"`
	Start int64      `json:"start"`
	End   int64      `json:"end"`
}

type jsonTransaction struct {
	Edge  ctg.EdgeID `json:"edge"`
	Src   int        `json:"src_pe"`
	Dst   int        `json:"dst_pe"`
	Start int64      `json:"start"`
	End   int64      `json:"end"`
}

// WriteJSON exports the schedule's placements as indented JSON.
func (s *Schedule) WriteJSON(w io.Writer) error {
	jw := jsonx.Writer{Indent: true}
	s.AppendJSON(&jw)
	_, err := w.Write(append(jw.Buf, '\n'))
	return err
}

// AppendJSON appends the schedule's placements to w in the format
// WriteJSON writes (the jsonSchedule form, field for field): at w's
// current depth, so a response can nest it.
func (s *Schedule) AppendJSON(w *jsonx.Writer) {
	w.BeginObject()
	w.Key("algorithm")
	w.String(s.Algorithm)
	w.Key("graph")
	w.String(s.Graph.Name)
	w.Key("platform")
	w.String(s.ACG.Platform().Topo.Name())
	w.Key("tasks")
	if len(s.Tasks) == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for i := range s.Tasks {
			p := &s.Tasks[i]
			w.BeginObject()
			w.Key("task")
			w.Int(int64(p.Task))
			w.Key("name")
			w.String(s.Graph.Task(p.Task).Name)
			w.Key("pe")
			w.Int(int64(p.PE))
			w.Key("start")
			w.Int(p.Start)
			w.Key("end")
			w.Int(p.Finish)
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("transactions")
	if len(s.Transactions) == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for i := range s.Transactions {
			tr := &s.Transactions[i]
			w.BeginObject()
			w.Key("edge")
			w.Int(int64(tr.Edge))
			w.Key("src_pe")
			w.Int(int64(tr.SrcPE))
			w.Key("dst_pe")
			w.Int(int64(tr.DstPE))
			w.Key("start")
			w.Int(tr.Start)
			w.Key("end")
			w.Int(tr.Finish)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// ReadJSON imports a schedule previously exported with WriteJSON,
// re-binding it to the given problem instance: the graph and ACG must
// be the ones the schedule was built for (names are cross-checked, and
// the result is fully re-validated, so a mismatched instance is
// rejected rather than silently misinterpreted). Routes are re-derived
// from the ACG.
func ReadJSON(r io.Reader, g *ctg.Graph, acg *energy.ACG) (*Schedule, error) {
	var js jsonSchedule
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	if js.Graph != g.Name {
		return nil, fmt.Errorf("sched: schedule is for graph %q, not %q", js.Graph, g.Name)
	}
	if name := acg.Platform().Topo.Name(); js.Platform != name {
		return nil, fmt.Errorf("sched: schedule is for platform %q, not %q", js.Platform, name)
	}
	if len(js.Tasks) != g.NumTasks() || len(js.Trans) != g.NumEdges() {
		return nil, fmt.Errorf("sched: schedule shape (%d tasks, %d transactions) does not match graph (%d, %d)",
			len(js.Tasks), len(js.Trans), g.NumTasks(), g.NumEdges())
	}
	full := New(g, acg, js.Algorithm)
	for _, jp := range js.Tasks {
		if jp.Task < 0 || int(jp.Task) >= g.NumTasks() {
			return nil, fmt.Errorf("sched: placement references unknown task %d", jp.Task)
		}
		full.Tasks[jp.Task] = TaskPlacement{Task: jp.Task, PE: jp.PE, Start: jp.Start, Finish: jp.End}
	}
	for _, jt := range js.Trans {
		if jt.Edge < 0 || int(jt.Edge) >= g.NumEdges() {
			return nil, fmt.Errorf("sched: placement references unknown edge %d", jt.Edge)
		}
		if jt.Src < 0 || jt.Src >= acg.NumPEs() || jt.Dst < 0 || jt.Dst >= acg.NumPEs() {
			return nil, fmt.Errorf("sched: transaction %d references unknown PE", jt.Edge)
		}
		tr := TransactionPlacement{Edge: jt.Edge, SrcPE: jt.Src, DstPE: jt.Dst, Start: jt.Start, Finish: jt.End}
		if acg.TransferTime(g.Edge(jt.Edge).Volume, jt.Src, jt.Dst) > 0 {
			tr.Route = acg.Route(jt.Src, jt.Dst)
		}
		full.Transactions[jt.Edge] = tr
	}
	if err := full.Validate(); err != nil {
		return nil, err
	}
	return full, nil
}

// ReadJSONLenient imports a schedule without validating it, for
// verification tooling: a conformance oracle wants to load a possibly
// broken artifact and report every defect as a typed finding, where
// ReadJSON would reject it at the first error. Only JSON syntax and
// the graph/platform name binding are enforced (a schedule for a
// different problem instance is a caller error, not a schedule
// defect). Placements referencing out-of-range tasks, edges, or PEs
// are dropped, leaving their slots zeroed for the oracle to flag;
// routes are re-derived from the ACG for in-range endpoint pairs with
// a positive transfer time, exactly as ReadJSON does.
func ReadJSONLenient(r io.Reader, g *ctg.Graph, acg *energy.ACG) (*Schedule, error) {
	var js jsonSchedule
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	if js.Graph != g.Name {
		return nil, fmt.Errorf("sched: schedule is for graph %q, not %q", js.Graph, g.Name)
	}
	if name := acg.Platform().Topo.Name(); js.Platform != name {
		return nil, fmt.Errorf("sched: schedule is for platform %q, not %q", js.Platform, name)
	}
	full := New(g, acg, js.Algorithm)
	for _, jp := range js.Tasks {
		if jp.Task < 0 || int(jp.Task) >= g.NumTasks() {
			continue
		}
		full.Tasks[jp.Task] = TaskPlacement{Task: jp.Task, PE: jp.PE, Start: jp.Start, Finish: jp.End}
	}
	for _, jt := range js.Trans {
		if jt.Edge < 0 || int(jt.Edge) >= g.NumEdges() {
			continue
		}
		tr := TransactionPlacement{Edge: jt.Edge, SrcPE: jt.Src, DstPE: jt.Dst, Start: jt.Start, Finish: jt.End}
		if jt.Src >= 0 && jt.Src < acg.NumPEs() && jt.Dst >= 0 && jt.Dst < acg.NumPEs() &&
			acg.TransferTime(g.Edge(jt.Edge).Volume, jt.Src, jt.Dst) > 0 {
			tr.Route = acg.Route(jt.Src, jt.Dst)
		}
		full.Transactions[jt.Edge] = tr
	}
	return full, nil
}
