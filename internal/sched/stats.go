package sched

import (
	"fmt"
	"io"
	"sort"

	"nocsched/internal/noc"
)

// PEStats describes one PE's load under a schedule.
type PEStats struct {
	PE    int
	Class string
	// Tasks assigned to the PE.
	Tasks int
	// BusyTime is the sum of execution times on the PE.
	BusyTime int64
	// Utilization is BusyTime / makespan (0 when the makespan is 0).
	Utilization float64
	// Energy is the computation energy spent on the PE.
	Energy float64
}

// LinkStats describes one directed link's traffic under a schedule.
type LinkStats struct {
	Link noc.LinkID
	From noc.TileID
	To   noc.TileID
	// Transactions crossing the link.
	Transactions int
	// BusyTime is the total occupied time on the link.
	BusyTime int64
	// Utilization is BusyTime / makespan.
	Utilization float64
	// Volume is the total bits carried.
	Volume int64
}

// Utilization computes per-PE and per-link load statistics — the view a
// designer uses to see where EAS parked the work and which links carry
// the traffic.
func (s *Schedule) Utilization() ([]PEStats, []LinkStats) {
	makespan := s.Makespan()
	platform := s.ACG.Platform()

	pes := make([]PEStats, s.ACG.NumPEs())
	for k := range pes {
		pes[k] = PEStats{PE: k, Class: platform.Classes[k].Name}
	}
	for i := range s.Tasks {
		p := &s.Tasks[i]
		st := &pes[p.PE]
		st.Tasks++
		st.BusyTime += p.Finish - p.Start
		st.Energy += s.Graph.Task(p.Task).Energy[p.PE]
	}

	links := make([]LinkStats, platform.Topo.NumLinks())
	for l := range links {
		link := platform.Topo.Link(noc.LinkID(l))
		links[l] = LinkStats{Link: noc.LinkID(l), From: link.From, To: link.To}
	}
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		dur := tr.Finish - tr.Start
		if dur == 0 {
			continue
		}
		vol := s.Graph.Edge(tr.Edge).Volume
		for _, l := range tr.Route {
			links[l].Transactions++
			links[l].BusyTime += dur
			links[l].Volume += vol
		}
	}
	if makespan > 0 {
		for k := range pes {
			pes[k].Utilization = float64(pes[k].BusyTime) / float64(makespan)
		}
		for l := range links {
			links[l].Utilization = float64(links[l].BusyTime) / float64(makespan)
		}
	}
	return pes, links
}

// RenderUtilization prints the utilization report: every PE, then the
// busiest links (topN; 0 means all).
func (s *Schedule) RenderUtilization(w io.Writer, topN int) {
	pes, links := s.Utilization()
	fmt.Fprintf(w, "utilization (%s, makespan %d)\n", s.Algorithm, s.Makespan())
	fmt.Fprintf(w, "%-4s %-8s %6s %10s %7s %12s\n", "PE", "class", "tasks", "busy", "util", "energy (nJ)")
	for _, p := range pes {
		fmt.Fprintf(w, "%-4d %-8s %6d %10d %6.1f%% %12.1f\n",
			p.PE, p.Class, p.Tasks, p.BusyTime, 100*p.Utilization, p.Energy)
	}
	sort.Slice(links, func(a, b int) bool {
		if links[a].BusyTime != links[b].BusyTime {
			return links[a].BusyTime > links[b].BusyTime
		}
		return links[a].Link < links[b].Link
	})
	if topN <= 0 || topN > len(links) {
		topN = len(links)
	}
	fmt.Fprintf(w, "%-6s %-10s %6s %10s %7s %12s\n", "link", "route", "trans", "busy", "util", "volume")
	for _, l := range links[:topN] {
		if l.Transactions == 0 {
			continue
		}
		fmt.Fprintf(w, "%-6d %3d->%-5d %6d %10d %6.1f%% %12d\n",
			l.Link, l.From, l.To, l.Transactions, l.BusyTime, 100*l.Utilization, l.Volume)
	}
}
