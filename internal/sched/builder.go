package sched

import (
	"fmt"
	"slices"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/schedtable"
)

// Builder incrementally constructs a Schedule while maintaining the
// schedule tables of every PE and every link. It implements the
// communication scheduler of the paper's Fig. 3: Commit reserves a
// task's incoming transactions and execution slot on the shared tables.
// The paper's probe-and-restore F(i,k) evaluation is a Prober, which
// predicts exactly what Commit would reserve without writing the tables.
//
// A Builder is also the reusable solver handle. Its zero value is ready
// for ListSchedule, which Resets it onto each new instance and probes
// through the builder's own Prober, so a driver scheduling many
// instances — a batch worker, a sweep harness — pays the table,
// route-table and prober allocations once, and on one platform then
// allocates only each run's Schedule. A schedule from a reused builder is bit-identical
// (Diff) to one from a fresh builder. A Builder is single-goroutine
// state: one run at a time; each batch worker owns one.
type Builder struct {
	g         *ctg.Graph
	acg       *energy.ACG
	algorithm string

	peTables   []schedtable.Table
	linkTables []schedtable.Table

	placed     []bool
	schedule   *Schedule
	nCommitted int

	// pending counts each task's in-edges whose source is not yet
	// committed. ready holds the Ready Task List: a task is appended
	// when its last pending predecessor commits, and AppendReady drops
	// committed tasks and restores task-ID order, so commits nobody
	// polls the list for (CommitOrder rebuilds) pay only an append.
	pending []int32
	ready   []ctg.TaskID

	// The exact probe cache behind Prober.ProbeCached (probecache.go):
	// write stamps per PE and link table, and one row of NumPEs entries
	// per ready-list slot.
	probeCache

	// routeTabs[i] points at the link table of the ACG's flat link
	// acg.Links()[i], so a route's tables slice by the same bounds as
	// its links (routeTables). Built once per ACG and only read after.
	routeTabs []*schedtable.Table

	// lct/trans are place()'s per-commit scratch, reused across
	// transactions so the steady-state commit path performs no heap
	// allocations (Placement.Trans aliases trans; see Placement).
	lct   []ctg.EdgeID
	trans []TransactionPlacement

	// orderPos/orderLast are CommitOrder's per-PE queue positions and
	// last finishes, kept so repeated layout rebuilds do not allocate.
	orderPos  []int
	orderLast []int64

	// log lists the tasks committed since Reset in commit order, and
	// logReady[i] the ready-list length before log[i] committed: what
	// Rewind needs to undo them and CommitOrder to resume after them.
	// Rewind cannot undo commits made before AppendReady last compacted
	// the ready list; rewindFloor is the commit count at that moment.
	log         []ctg.TaskID
	logReady    []int32
	rewindFloor int

	// contention selects the exact Fig. 3 link-contention model (true,
	// the default) or the naive fixed-delay model most prior work uses
	// (false): every transaction takes volume/bandwidth time starting
	// the moment its sender finishes, with no link reservation. The
	// naive model exists for the ablation that quantifies the paper's
	// claim that modeling contention matters.
	contention bool

	// metrics holds pre-resolved telemetry handles (nil when telemetry
	// is off); probers copy the handles they need at construction.
	metrics *Metrics

	// prober and rtl are ListSchedule's: the builder's own prober, kept
	// across runs, and the ready-list buffer.
	prober *Prober
	rtl    []ctg.TaskID
}

// Placement is the outcome of probing or committing one task on one PE.
type Placement struct {
	Task   ctg.TaskID
	PE     int
	Start  int64
	Finish int64
	// DRT is the data-ready time: the latest arrival of the incoming
	// transactions (Eq. 4 context).
	DRT int64
	// CommEnergy is the energy of the incoming transactions under this
	// placement (the footnote-2 term of the paper's E1/E2 metric).
	CommEnergy float64
	// Trans holds the incoming transaction placements, in the order
	// they were scheduled (sender-finish order per Fig. 3). The slice
	// aliases builder scratch and is only valid until the next probe or
	// commit on the same builder; callers that retain it must copy.
	Trans []TransactionPlacement
}

// NewBuilder returns a Builder for one scheduling run: the zero
// Builder Reset onto g and acg.
func NewBuilder(g *ctg.Graph, acg *energy.ACG, algorithm string) *Builder {
	b := &Builder{algorithm: algorithm}
	b.Reset(g, acg)
	return b
}

// The reusable solver's old names, kept only for bench/nocbench until
// the benchmark moves to Builder; nothing else may use them.
type Workspace = Builder

// A zero Builder; both arguments are ignored.
func NewWorkspace(int, bool) *Builder { return new(Builder) }

// A Pick is one list scheduler's decision rule: given the round's Ready
// Task List rtl (task-ID order, never empty), it names the task to
// commit and its PE. It may probe through pr and read b's committed
// placements, but must not commit.
type Pick func(b *Builder, pr *Prober, rtl []ctg.TaskID) (ctg.TaskID, int, error)

// ListSchedule runs one list-scheduling solve of graph g on acg, the
// one loop EAS Step 2 and its deadline-first fallback, EDF, DLS and the
// mapping baseline share: it Resets the builder, attaches metrics m
// (nil: none) and the contention model, then every round lists the
// ready tasks, records the ready-list depth, and commits the (task, PE)
// pick returns, until every task is committed. Picks probe through the
// builder's own prober, which ListSchedule keeps across runs with its
// counters zeroed, so a rule that carries rows from one round to the
// next (Prober.Carry) finds its records there. The schedule carries the
// run's probe, reuse, row-scan and carried-row counts.
func (b *Builder) ListSchedule(g *ctg.Graph, acg *energy.ACG, algorithm string, m *Metrics, contention bool, pick Pick) (*Schedule, error) {
	b.algorithm = algorithm
	b.Reset(g, acg)
	b.SetMetrics(m)
	b.SetContentionAware(contention)
	if b.prober == nil {
		b.prober = b.NewProber()
	}
	pr := b.prober
	pr.overlay.Grow(len(b.linkTables))
	pr.probes, pr.reuses, pr.rows, pr.carried = 0, 0, 0, 0
	for b.Committed() < g.NumTasks() {
		b.rtl = b.AppendReady(b.rtl[:0])
		if len(b.rtl) == 0 {
			return nil, fmt.Errorf("%s: no ready tasks with %d of %d committed",
				algorithm, b.Committed(), g.NumTasks())
		}
		m.ObserveReadyDepth(len(b.rtl))
		t, k, err := pick(b, pr, b.rtl)
		if err != nil {
			return nil, err
		}
		if _, err := b.Commit(t, k); err != nil {
			return nil, err
		}
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Probes, s.ProbeReuses = pr.Probes(), pr.Reuses()
	s.RowScans, s.RowsCarried = pr.rows, pr.carried
	return s, nil
}

// resetTables resizes ts to n zero-state tables, reusing both the slice
// and each table's interval storage when capacity allows.
func resetTables(ts []schedtable.Table, n int) []schedtable.Table {
	if cap(ts) < n {
		return make([]schedtable.Table, n)
	}
	ts = ts[:n]
	for i := range ts {
		ts[i].Reset()
	}
	return ts
}

// Reset returns the builder to its initial state for a new scheduling
// run of graph g, reusing every table, route, log and scratch
// allocation it can. With the same ACG the steady-state cost is one
// fresh Schedule shell, the one Finish hands out, and nothing else (the
// allocation-regression test pins this); a different ACG rebuilds the
// per-table stamps and grows the table storage if it must. Metrics are
// detached and the contention model is restored to the exact Fig. 3
// default; callers wanting either must set it again after Reset.
//
// Reset preserves the builder's identity, so Probers created from it
// remain valid across same-ACG resets, and ListSchedule resizes the
// builder's own prober across platform changes — that is what lets a
// batch worker drive thousands of instances through one builder with
// zero steady-state allocation. Step 3 does not reset per candidate:
// it rewinds (Rewind) and resumes CommitOrder.
func (b *Builder) Reset(g *ctg.Graph, acg *energy.ACG) {
	if acg != b.acg {
		b.acg = acg
		b.peTables = resetTables(b.peTables, acg.NumPEs())
		b.linkTables = resetTables(b.linkTables, acg.Platform().Topo.NumLinks())
		b.bindRoutes()
		b.resizeStamps()
	} else {
		for i := range b.peTables {
			b.peTables[i].Reset()
		}
		for i := range b.linkTables {
			b.linkTables[i].Reset()
		}
		// routeTabs stays valid: it points into the same linkTables
		// backing array and routes are a platform property.
	}
	b.g = g
	n := g.NumTasks()
	if cap(b.placed) < n {
		b.placed = make([]bool, n)
	} else {
		b.placed = b.placed[:n]
		clear(b.placed)
	}
	b.schedule = New(g, acg, b.algorithm)
	b.nCommitted = 0
	b.contention = true
	b.metrics = nil
	b.resetReady()
}

// resetReady rebuilds the pending-predecessor counts and the ready
// list for a run with nothing committed, and frees every cache slot.
func (b *Builder) resetReady() {
	n := b.g.NumTasks()
	b.pending = slices.Grow(b.pending[:0], n)[:n]
	b.ready = b.ready[:0]
	b.log, b.logReady, b.rewindFloor = b.log[:0], b.logReady[:0], 0
	b.resetSlots(n)
	for i := range b.pending {
		t := ctg.TaskID(i)
		b.pending[i] = int32(len(b.g.In(t)))
		if b.pending[i] == 0 {
			b.ready = append(b.ready, t)
		}
	}
}

// markPlaced records t as committed, logs it, frees its cache slot,
// and appends every successor whose last pending predecessor this was
// to the ready list.
func (b *Builder) markPlaced(t ctg.TaskID) {
	b.placed[t] = true
	b.nCommitted++
	b.log = append(b.log, t)
	b.logReady = append(b.logReady, int32(len(b.ready)))
	if b.slot[t] >= 0 {
		b.freeSlot(t)
	}
	for _, eid := range b.g.Out(t) {
		d := b.g.Edge(eid).Dst
		if b.pending[d]--; b.pending[d] == 0 {
			b.ready = append(b.ready, d)
		}
	}
	b.metrics.commits().Inc()
}

// bindRoutes points routeTabs at the link tables of the ACG's flat
// links, index for index.
func (b *Builder) bindRoutes() {
	links := b.acg.Links()
	b.routeTabs = slices.Grow(b.routeTabs[:0], len(links))[:len(links)]
	for i, l := range links {
		b.routeTabs[i] = &b.linkTables[l]
	}
}

// routeTables returns the link tables and link IDs of the ACG route
// from PE src to PE dst; a PE's route to itself is empty.
func (b *Builder) routeTables(src, dst int) ([]*schedtable.Table, []noc.LinkID) {
	lo, hi := b.acg.RouteSpan(src, dst)
	return b.routeTabs[lo:hi], b.acg.Links()[lo:hi]
}

// SetContentionAware toggles the exact link-contention model. Schedules
// built with the naive model generally fail Schedule.Validate because
// transactions overlap on links; they are only useful as ablation input.
func (b *Builder) SetContentionAware(on bool) {
	b.contention = on
	b.invalidate()
}

// Graph returns the CTG being scheduled.
func (b *Builder) Graph() *ctg.Graph { return b.g }

// ACG returns the architecture characterization graph in use.
func (b *Builder) ACG() *energy.ACG { return b.acg }

// Committed returns the number of committed tasks.
func (b *Builder) Committed() int { return b.nCommitted }

// TaskPlacement returns the committed placement of task t; it is only
// meaningful once t is committed.
func (b *Builder) TaskPlacement(t ctg.TaskID) TaskPlacement { return b.schedule.Tasks[t] }

// Ready reports whether every predecessor of t has been committed and t
// itself has not.
func (b *Builder) Ready(t ctg.TaskID) bool { return !b.placed[t] && b.pending[t] == 0 }

// AppendReady appends the current Ready Task List (RTL) to dst in
// task-ID order and returns the extended slice; ListSchedule polls it
// every round. Commits keep the list, so this costs O(ready
// tasks), not O(tasks). A task listed for the first time gets its
// probe-cache slot here: only tasks a scheduler polls for can be served
// by ProbeCached.
func (b *Builder) AppendReady(dst []ctg.TaskID) []ctg.TaskID {
	live := b.ready[:0]
	for _, t := range b.ready {
		if b.placed[t] {
			continue
		}
		// Insertion sort: tasks joined in commit order, at the end.
		live = append(live, t)
		for i := len(live) - 1; i > 0 && live[i] < live[i-1]; i-- {
			live[i], live[i-1] = live[i-1], live[i]
		}
		if b.slot[t] < 0 {
			b.takeSlot(t)
		}
	}
	b.ready = live
	b.rewindFloor = b.nCommitted
	return append(dst, live...)
}

// place reserves the incoming transactions and the execution slot of
// task t on PE k on the shared tables. floor constrains the task start
// (used by timing reconstruction to enforce a per-PE execution order);
// pass 0 to allow gap filling.
//
// Implements Fig. 3: transactions are scheduled in ascending
// sender-finish order; each goes into the earliest slot at or after the
// sender's finish that is simultaneously free on every link of its
// route.
func (b *Builder) place(t ctg.TaskID, k int, floor int64) (Placement, error) {
	task := b.g.Task(t)
	if !task.RunnableOn(k) {
		return Placement{}, fmt.Errorf("sched: task %d not runnable on PE %d", t, k)
	}
	// LCT: incoming transactions sorted by sender finish time
	// (deterministic tie-break on edge ID). Insertion sort over builder
	// scratch — the in-degree is tiny, and both the copy and sort.Slice
	// would allocate on every commit.
	b.lct = append(b.lct[:0], b.g.In(t)...)
	lct := b.lct
	for i := 1; i < len(lct); i++ {
		for j := i; j > 0 && lctLess(b, lct[j], lct[j-1]); j-- {
			lct[j], lct[j-1] = lct[j-1], lct[j]
		}
	}

	b.trans = b.trans[:0]
	b.stamp++
	p := Placement{Task: t, PE: k}
	for _, eid := range lct {
		e := b.g.Edge(eid)
		src := b.schedule.Tasks[e.Src]
		if !b.placed[e.Src] {
			return Placement{}, fmt.Errorf("sched: task %d probed before predecessor %d committed", t, e.Src)
		}
		dur := b.acg.TransferTime(e.Volume, src.PE, k)
		tr := TransactionPlacement{Edge: eid, SrcPE: src.PE, DstPE: k}
		if dur == 0 {
			// Intra-tile delivery or control dependency: arrives the
			// moment the sender finishes, occupying no network.
			tr.Start, tr.Finish = src.Finish, src.Finish
		} else if b.contention {
			tables, ids := b.routeTables(src.PE, k)
			start := schedtable.FindEarliestAll(tables, src.Finish, dur)
			for _, id := range ids {
				b.linkStamp[id] = b.stamp
			}
			if err := schedtable.ReserveAll(tables, start, dur); err != nil {
				return Placement{}, fmt.Errorf("sched: reserve transaction %d: %w", eid, err)
			}
			tr.Start, tr.Finish = start, start+dur
			tr.Route = b.acg.Route(src.PE, k) // aliases immutable ACG storage
			p.CommEnergy += b.acg.CommEnergy(e.Volume, src.PE, k)
		} else {
			// Naive model: fixed delay, no link occupancy bookkeeping.
			tr.Start, tr.Finish = src.Finish, src.Finish+dur
			tr.Route = b.acg.Route(src.PE, k)
			p.CommEnergy += b.acg.CommEnergy(e.Volume, src.PE, k)
		}
		if tr.Finish > p.DRT {
			p.DRT = tr.Finish
		}
		b.trans = append(b.trans, tr)
	}
	p.Trans = b.trans
	earliest := p.DRT
	if floor > earliest {
		earliest = floor
	}
	exec := task.ExecTime[k]
	start := b.peTables[k].FindEarliest(earliest, exec)
	if exec == 0 {
		// Zero-length tasks still occupy a point in the order; no
		// reservation needed.
		p.Start, p.Finish = start, start
		return p, nil
	}
	b.peStamp[k] = b.stamp
	if err := b.peTables[k].Reserve(start, exec); err != nil {
		return Placement{}, fmt.Errorf("sched: reserve task %d on PE %d: %w", t, k, err)
	}
	p.Start, p.Finish = start, start+exec
	return p, nil
}

// Commit permanently places task t on PE k with no ordering floor.
func (b *Builder) Commit(t ctg.TaskID, k int) (Placement, error) {
	return b.CommitAfter(t, k, 0)
}

// CommitAfter permanently places task t on PE k, with its start
// constrained to be at or after floor. The placement and its incoming
// transactions are recorded in the schedule under construction.
func (b *Builder) CommitAfter(t ctg.TaskID, k int, floor int64) (Placement, error) {
	if b.placed[t] {
		return Placement{}, fmt.Errorf("sched: task %d committed twice", t)
	}
	p, err := b.place(t, k, floor)
	if err != nil {
		return Placement{}, err
	}
	b.schedule.Tasks[t] = TaskPlacement{Task: t, PE: k, Start: p.Start, Finish: p.Finish}
	for _, tr := range p.Trans {
		b.schedule.Transactions[tr.Edge] = tr
	}
	b.markPlaced(t)
	return p, nil
}

// Finish returns the completed schedule. It fails if any task remains
// uncommitted.
func (b *Builder) Finish() (*Schedule, error) {
	if b.nCommitted != b.g.NumTasks() {
		return nil, fmt.Errorf("sched: schedule incomplete: %d of %d tasks committed",
			b.nCommitted, b.g.NumTasks())
	}
	return b.schedule, nil
}
