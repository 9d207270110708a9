package sched

import (
	"fmt"

	"nocsched/internal/noc"
	"nocsched/internal/telemetry"
)

// EmitChromeTrace renders the committed schedule into a Chrome
// trace_event sink as a Gantt chart: one track per PE (task execution
// slices, named by task) and one track per directed link (transaction
// slices, named by edge). Every PE and link track is declared up front
// so idle resources still appear as empty rows; PE tracks sort above
// link tracks. Timestamps are schedule time units rendered in the
// viewer's µs column.
//
// The caller owns the sink: check sink.Err / Close it afterwards (the
// sink records the first write error rather than failing mid-render).
func (s *Schedule) EmitChromeTrace(sink *telemetry.ChromeSink) {
	if sink == nil {
		return
	}
	plat := s.ACG.Platform()
	npes := s.ACG.NumPEs()
	peTrack := make([]string, npes)
	for pe := 0; pe < npes; pe++ {
		peTrack[pe] = fmt.Sprintf("PE %d (%s)", pe, plat.Classes[pe].Name)
		sink.DeclareTrack(peTrack[pe])
	}
	nlinks := plat.Topo.NumLinks()
	linkTrack := make([]string, nlinks)
	for l := 0; l < nlinks; l++ {
		lk := plat.Topo.Link(noc.LinkID(l))
		linkTrack[l] = fmt.Sprintf("link %d->%d", lk.From, lk.To)
		sink.DeclareTrack(linkTrack[l])
	}
	for i := range s.Tasks {
		p := &s.Tasks[i]
		t := s.Graph.Task(p.Task)
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", p.Task)
		}
		sink.Emit(&telemetry.Event{
			Name: name, Track: peTrack[p.PE], Kind: 'X',
			Ts: p.Start, Dur: p.Finish - p.Start,
		})
	}
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		if tr.Finish == tr.Start {
			continue // intra-tile or control: no network occupancy
		}
		name := fmt.Sprintf("e%d t%d->t%d", tr.Edge,
			s.Graph.Edge(tr.Edge).Src, s.Graph.Edge(tr.Edge).Dst)
		for _, l := range tr.Route {
			sink.Emit(&telemetry.Event{
				Name: name, Track: linkTrack[l], Kind: 'X',
				Ts: tr.Start, Dur: tr.Finish - tr.Start,
			})
		}
	}
}
