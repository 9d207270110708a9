// Package sched defines the output representation shared by all
// schedulers in this repository: a static, non-preemptive schedule
// assigning every task to a PE and a start time, and every communication
// transaction to a time slot on its route (the paper's Sec. 4 problem
// statement). It also provides the energy accounting of Eq. (3), the
// compatibility validation of Definitions 3 and 4, deadline analysis,
// and human-readable rendering.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
)

// TaskPlacement fixes where and when one task executes.
type TaskPlacement struct {
	Task   ctg.TaskID
	PE     int
	Start  int64
	Finish int64
}

// TransactionPlacement fixes when one communication transaction occupies
// its route. For intra-tile transfers (SrcPE == DstPE) and pure control
// dependencies the route is empty and Start == Finish == the sender's
// finish time.
type TransactionPlacement struct {
	Edge   ctg.EdgeID
	SrcPE  int
	DstPE  int
	Start  int64
	Finish int64
	Route  []noc.LinkID
}

// Schedule is a complete static schedule of a CTG on a platform.
type Schedule struct {
	Graph *ctg.Graph
	ACG   *energy.ACG

	// Tasks is indexed by TaskID; Transactions by EdgeID.
	Tasks        []TaskPlacement
	Transactions []TransactionPlacement

	// Algorithm names the scheduler that produced the schedule
	// ("eas", "eas-base", "edf").
	Algorithm string
	// Elapsed is the wall-clock scheduling time, reported because the
	// paper compares scheduler run times with and without
	// search-and-repair.
	Elapsed time.Duration
	// Work counts the solver work that built the schedule.
	Work
}

// Work counts one list-scheduling run's solver work; Add sums runs.
type Work struct {
	// Probes counts the F(i,k) feasibility probes answered,
	// ProbeReuses included — the unit the performance harness
	// normalizes by (probes/sec is scheduler throughput independent of
	// graph shape). A test FinishBound settled is not a probe;
	// BoundSettled counts those.
	Probes int64
	// ProbeReuses counts the Probes answered from the exact probe cache
	// (Prober.ProbeCached) rather than evaluated.
	ProbeReuses int64
	// RowScans counts the ready-task rows scanned (Prober.Row), and
	// RowsCarried the rows a list scheduler reused unscanned because
	// nothing they read had changed (Prober.Carry).
	RowScans, RowsCarried int64
	// BoundSettled counts the tests a table-tail bound settled in place
	// of a probe (Prober.Settle): EAS Step 2's L_i memberships.
	BoundSettled int64
}

// Add adds o's counts to w.
func (w *Work) Add(o Work) {
	w.Probes += o.Probes
	w.ProbeReuses += o.ProbeReuses
	w.RowScans += o.RowScans
	w.RowsCarried += o.RowsCarried
	w.BoundSettled += o.BoundSettled
}

// New allocates an empty schedule shell for the given problem instance.
func New(g *ctg.Graph, acg *energy.ACG, algorithm string) *Schedule {
	return &Schedule{
		Graph:        g,
		ACG:          acg,
		Tasks:        make([]TaskPlacement, g.NumTasks()),
		Transactions: make([]TransactionPlacement, g.NumEdges()),
		Algorithm:    algorithm,
	}
}

// ComputationEnergy returns the first term of Eq. (3):
// sum over tasks of e_i[M(t_i)].
func (s *Schedule) ComputationEnergy() float64 {
	total := 0.0
	for i := range s.Tasks {
		p := &s.Tasks[i]
		total += s.Graph.Task(p.Task).Energy[p.PE]
	}
	return total
}

// CommunicationEnergy returns the second term of Eq. (3):
// sum over arcs of v(c_ij) * e(r_{M(ti),M(tj)}).
func (s *Schedule) CommunicationEnergy() float64 {
	total := 0.0
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		total += s.ACG.CommEnergy(s.Graph.Edge(tr.Edge).Volume, tr.SrcPE, tr.DstPE)
	}
	return total
}

// TotalEnergy returns Eq. (3), the scheduler's objective.
func (s *Schedule) TotalEnergy() float64 {
	return s.ComputationEnergy() + s.CommunicationEnergy()
}

// Makespan returns the latest task finish time.
func (s *Schedule) Makespan() int64 {
	var m int64
	for i := range s.Tasks {
		if s.Tasks[i].Finish > m {
			m = s.Tasks[i].Finish
		}
	}
	return m
}

// DeadlineMisses returns the tasks whose finish time exceeds their
// specified deadline, in task-ID order.
func (s *Schedule) DeadlineMisses() []ctg.TaskID {
	var misses []ctg.TaskID
	for i := range s.Tasks {
		p := &s.Tasks[i]
		t := s.Graph.Task(p.Task)
		if t.HasDeadline() && p.Finish > t.Deadline {
			misses = append(misses, p.Task)
		}
	}
	return misses
}

// MaxLateness returns the largest (finish - deadline) over
// deadline-constrained tasks; non-positive values mean all deadlines are
// met. Returns math.MinInt64 if the graph has no deadlines.
func (s *Schedule) MaxLateness() int64 {
	lateness := int64(math.MinInt64)
	for i := range s.Tasks {
		p := &s.Tasks[i]
		t := s.Graph.Task(p.Task)
		if !t.HasDeadline() {
			continue
		}
		if l := p.Finish - t.Deadline; l > lateness {
			lateness = l
		}
	}
	return lateness
}

// Feasible reports whether every specified deadline is met.
func (s *Schedule) Feasible() bool { return len(s.DeadlineMisses()) == 0 }

// AvgHopsPerPacket returns the mean n_hops over all data transactions
// (volume > 0), counting intra-tile deliveries as 0 hops — the metric
// the paper reports when explaining where EAS's communication-energy
// savings come from ("decreasing the average hops per packet from 2.55
// to 1.58"). Returns 0 if there are no data transactions.
func (s *Schedule) AvgHopsPerPacket() float64 {
	sum, n := 0.0, 0
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		if s.Graph.Edge(tr.Edge).Volume <= 0 {
			continue
		}
		sum += float64(s.ACG.Hops(tr.SrcPE, tr.DstPE))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PEOrder returns, for each PE, the IDs of the tasks assigned to it in
// ascending start-time order. It is the representation search-and-repair
// manipulates.
func (s *Schedule) PEOrder() [][]ctg.TaskID {
	order := make([][]ctg.TaskID, s.ACG.NumPEs())
	for i := range s.Tasks {
		p := &s.Tasks[i]
		order[p.PE] = append(order[p.PE], p.Task)
	}
	for pe := range order {
		tasks := order[pe]
		sort.Slice(tasks, func(a, b int) bool {
			sa, sb := s.Tasks[tasks[a]].Start, s.Tasks[tasks[b]].Start
			if sa != sb {
				return sa < sb
			}
			return tasks[a] < tasks[b]
		})
	}
	return order
}

// Validate checks that the schedule is a feasible solution of the
// paper's Sec. 4 formulation, except for deadlines (use Feasible /
// DeadlineMisses for those, since the paper's EAS-base legitimately
// produces deadline-missing schedules that are otherwise well-formed):
//
//   - every task placement matches the task's execution time on its PE
//     and the PE can run the task;
//   - tasks on the same PE do not overlap (Definition 4);
//   - every transaction starts at or after its sender's finish, lasts
//     exactly its transfer time, follows the ACG route, and finishes at
//     or before its receiver's start (dependency satisfaction);
//   - transactions whose routes share a link do not overlap in time
//     (Definition 3).
func (s *Schedule) Validate() error {
	g := s.Graph
	if len(s.Tasks) != g.NumTasks() || len(s.Transactions) != g.NumEdges() {
		return fmt.Errorf("sched: incomplete schedule: %d/%d tasks, %d/%d transactions",
			len(s.Tasks), g.NumTasks(), len(s.Transactions), g.NumEdges())
	}
	for i := range s.Tasks {
		p := &s.Tasks[i]
		if p.Task != ctg.TaskID(i) {
			return fmt.Errorf("sched: task slot %d holds task %d", i, p.Task)
		}
		t := g.Task(p.Task)
		if p.PE < 0 || p.PE >= s.ACG.NumPEs() {
			return fmt.Errorf("sched: task %d on invalid PE %d", p.Task, p.PE)
		}
		if !t.RunnableOn(p.PE) {
			return fmt.Errorf("sched: task %d not runnable on PE %d", p.Task, p.PE)
		}
		if p.Start < 0 {
			return fmt.Errorf("sched: task %d starts at negative time %d", p.Task, p.Start)
		}
		if want := p.Start + t.ExecTime[p.PE]; p.Finish != want {
			return fmt.Errorf("sched: task %d finish %d, want %d (start %d + exec %d)",
				p.Task, p.Finish, want, p.Start, t.ExecTime[p.PE])
		}
	}
	// Definition 4: same-PE tasks must not overlap.
	for pe, tasks := range s.PEOrder() {
		for i := 1; i < len(tasks); i++ {
			prev, cur := &s.Tasks[tasks[i-1]], &s.Tasks[tasks[i]]
			if cur.Start < prev.Finish {
				return fmt.Errorf("sched: tasks %d and %d overlap on PE %d ([%d,%d) vs [%d,%d))",
					prev.Task, cur.Task, pe, prev.Start, prev.Finish, cur.Start, cur.Finish)
			}
		}
	}
	// Transactions: dependency, duration, route and placement checks.
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		if tr.Edge != ctg.EdgeID(i) {
			return fmt.Errorf("sched: transaction slot %d holds edge %d", i, tr.Edge)
		}
		e := g.Edge(tr.Edge)
		src, dst := &s.Tasks[e.Src], &s.Tasks[e.Dst]
		if tr.SrcPE != src.PE || tr.DstPE != dst.PE {
			return fmt.Errorf("sched: transaction %d PEs (%d->%d) disagree with task placement (%d->%d)",
				tr.Edge, tr.SrcPE, tr.DstPE, src.PE, dst.PE)
		}
		if tr.Start < src.Finish {
			return fmt.Errorf("sched: transaction %d starts at %d before sender task %d finishes at %d",
				tr.Edge, tr.Start, e.Src, src.Finish)
		}
		wantDur := s.ACG.TransferTime(e.Volume, tr.SrcPE, tr.DstPE)
		if tr.Finish-tr.Start != wantDur {
			return fmt.Errorf("sched: transaction %d duration %d, want %d",
				tr.Edge, tr.Finish-tr.Start, wantDur)
		}
		if tr.Finish > dst.Start {
			return fmt.Errorf("sched: transaction %d finishes at %d after receiver task %d starts at %d",
				tr.Edge, tr.Finish, e.Dst, dst.Start)
		}
		want := s.ACG.Route(tr.SrcPE, tr.DstPE)
		if wantDur == 0 {
			// Intra-tile or control transfer: no network occupancy.
			if len(tr.Route) != 0 {
				return fmt.Errorf("sched: zero-time transaction %d has a route", tr.Edge)
			}
			continue
		}
		if len(tr.Route) != len(want) {
			return fmt.Errorf("sched: transaction %d route length %d, want %d",
				tr.Edge, len(tr.Route), len(want))
		}
		for j := range want {
			if tr.Route[j] != want[j] {
				return fmt.Errorf("sched: transaction %d deviates from the deterministic route at hop %d",
					tr.Edge, j)
			}
		}
	}
	// Definition 3: transactions sharing a link must not overlap in
	// time. Collect per-link occupancies and sort.
	type slot struct {
		edge       ctg.EdgeID
		start, end int64
	}
	perLink := make(map[noc.LinkID][]slot)
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		if tr.Finish == tr.Start {
			continue
		}
		for _, l := range tr.Route {
			perLink[l] = append(perLink[l], slot{edge: tr.Edge, start: tr.Start, end: tr.Finish})
		}
	}
	for link, slots := range perLink {
		sort.Slice(slots, func(a, b int) bool { return slots[a].start < slots[b].start })
		for i := 1; i < len(slots); i++ {
			if slots[i].start < slots[i-1].end {
				return fmt.Errorf("sched: transactions %d and %d overlap on link %d",
					slots[i-1].edge, slots[i].edge, link)
			}
		}
	}
	return nil
}

// EnergyBreakdown summarizes a schedule for reporting.
type EnergyBreakdown struct {
	Computation   float64
	Communication float64
	Total         float64
	AvgHops       float64
	Makespan      int64
	Misses        int
}

// Breakdown returns the schedule's energy and performance summary.
func (s *Schedule) Breakdown() EnergyBreakdown {
	comp := s.ComputationEnergy()
	comm := s.CommunicationEnergy()
	return EnergyBreakdown{
		Computation:   comp,
		Communication: comm,
		Total:         comp + comm,
		AvgHops:       s.AvgHopsPerPacket(),
		Makespan:      s.Makespan(),
		Misses:        len(s.DeadlineMisses()),
	}
}

// Gantt renders a per-PE textual Gantt chart of the schedule, ordered by
// PE then start time. Intended for examples and CLI output, not parsing.
func (s *Schedule) Gantt() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %q: energy=%.1f nJ (comp %.1f + comm %.1f), makespan=%d, misses=%d\n",
		s.Algorithm, s.TotalEnergy(), s.ComputationEnergy(), s.CommunicationEnergy(),
		s.Makespan(), len(s.DeadlineMisses()))
	for pe, tasks := range s.PEOrder() {
		cls := s.ACG.Platform().Classes[pe]
		fmt.Fprintf(&b, "  PE %2d (%s):", pe, cls.Name)
		if len(tasks) == 0 {
			b.WriteString(" idle\n")
			continue
		}
		b.WriteString("\n")
		for _, id := range tasks {
			p := &s.Tasks[id]
			t := s.Graph.Task(id)
			mark := ""
			if t.HasDeadline() {
				mark = fmt.Sprintf(" d=%d", t.Deadline)
				if p.Finish > t.Deadline {
					mark += " MISS"
				}
			}
			fmt.Fprintf(&b, "    [%6d,%6d) %s%s\n", p.Start, p.Finish, t.Name, mark)
		}
	}
	return b.String()
}
