package fault

import (
	"errors"
	"fmt"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
)

// Metric names published into opts.EAS.Telemetry's registry by
// ReplayStream (counts, accumulated across events).
const (
	MetricStreamEvents      = "fault_stream_events_total"
	MetricStreamFrozenTasks = "fault_stream_frozen_tasks_total"
	MetricStreamRescheduled = "fault_stream_rescheduled_tasks_total"
	MetricStreamShed        = "fault_stream_shed_tasks_total"
)

// DefaultStreamRepairBudget caps attempted suffix-repair migrations per
// stream event when StreamOptions.RepairBudget is zero.
const DefaultStreamRepairBudget = 64

// StreamEvent is one burst of permanent faults revealed at Time (in
// schedule time units): the named PEs, routers and links die at that
// instant and stay dead.
type StreamEvent struct {
	Time    int64        `json:"time"`
	PEs     []noc.TileID `json:"pes,omitempty"`
	Routers []noc.TileID `json:"routers,omitempty"`
	Links   []noc.LinkID `json:"links,omitempty"`
}

// Stream is an online fault trace: timestamped permanent-fault events
// revealed to the scheduler one at a time, in contrast to the Scenario
// model where the whole fault set is known before rescheduling.
type Stream []StreamEvent

// Validate rejects ill-formed streams (negative times, empty events).
// Range checks against a platform happen per event inside ReplayStream.
func (st Stream) Validate() error {
	for i, ev := range st {
		if ev.Time < 0 {
			return fmt.Errorf("fault: stream event %d at negative time %d", i, ev.Time)
		}
		if len(ev.PEs)+len(ev.Routers)+len(ev.Links) == 0 {
			return fmt.Errorf("fault: stream event %d (t=%d) names no hardware", i, ev.Time)
		}
	}
	return nil
}

// StreamOptions configures ReplayStream.
type StreamOptions struct {
	// EAS supplies the telemetry sink and contention model for the
	// suffix rebuilds (weight and full-reschedule options do not apply:
	// the committed prefix is frozen, so there is no from-scratch pass).
	EAS eas.Options
	// RepairBudget caps attempted suffix-repair migrations per event;
	// 0 selects DefaultStreamRepairBudget.
	RepairBudget int
	// Shed configures graceful degradation when an event leaves the
	// suffix infeasible.
	Shed ShedOptions
	// DisableShedding turns graceful degradation off: infeasible
	// hardware loss surfaces as ErrDisconnected / ErrNoCapablePE and
	// residual deadline misses are reported as-is.
	DisableShedding bool
}

// StreamStep reports what one event did to the schedule.
type StreamStep struct {
	// Time is the event instant; Event the coalesced faults applied.
	Time  int64
	Event StreamEvent
	// Frozen counts tasks kept verbatim: they started before the event
	// and their delivered outputs survive on alive hardware.
	Frozen int
	// Rescheduled counts suffix tasks re-placed and re-timed.
	Rescheduled int
	// Interrupted counts tasks that had already started but must
	// re-run: their PE died mid-execution, or they finished on a PE
	// that died before a not-yet-started consumer could be fed from it.
	Interrupted int
	// Migrated counts suffix tasks whose PE changed at this event.
	Migrated int
	// RepairMoves counts accepted suffix-repair migrations.
	RepairMoves int
	// Shed lists tasks abandoned at this event (with closures).
	Shed []ctg.TaskID
	// MissesAfter / EnergyAfter describe the post-event hybrid.
	MissesAfter int
	EnergyAfter float64
}

// StreamResult is the outcome of replaying an online fault stream.
type StreamResult struct {
	// Schedule is the final hybrid: the committed prefix of the last
	// event verbatim plus the incrementally rebuilt suffix. Its frozen
	// placements may reference hardware that is now dead (they describe
	// the past); only the suffix is guaranteed to run on survivors, so
	// the hybrid is not Validate-clean against the degraded platform.
	Schedule *sched.Schedule
	// Graph is the CTG the final suffix was built against (dead PEs
	// incapable, shed tasks zeroed).
	Graph *ctg.Graph
	// Degraded is the cumulative degraded platform after the last
	// event.
	Degraded *Degraded
	// Steps has one entry per distinct event time, in order.
	Steps []StreamStep
	// Shed accumulates every task abandoned across the stream.
	Shed []ctg.TaskID
	// MissesBefore / EnergyBefore describe the fault-free input.
	MissesBefore int
	EnergyBefore float64
}

// Feasible reports whether the final hybrid meets every surviving
// deadline.
func (r *StreamResult) Feasible() bool {
	if len(r.Steps) == 0 {
		return r.MissesBefore == 0
	}
	return r.Steps[len(r.Steps)-1].MissesAfter == 0
}

// EnergyOverhead returns the fractional energy cost of surviving the
// stream: (after - before) / before; negative when shedding freed more
// energy than the detours cost.
func (r *StreamResult) EnergyOverhead() float64 {
	if len(r.Steps) == 0 || r.EnergyBefore == 0 {
		return 0
	}
	return (r.Steps[len(r.Steps)-1].EnergyAfter - r.EnergyBefore) / r.EnergyBefore
}

// streamState is the evolving picture ReplayStream threads between
// events.
type streamState struct {
	cur  *sched.Schedule // current hybrid (the input schedule initially)
	g    *ctg.Graph      // working CTG: shed tasks zeroed, history-only edges drained
	shed []bool          // shed mask over g
	d    *Degraded       // cumulative degraded platform
}

// ReplayStream plays an online fault trace against a committed
// schedule. Events are coalesced by time and applied in order; at each
// event time t the schedule is checkpointed: every task that started
// before t is frozen exactly as committed, and only the not-yet-started
// suffix is re-placed and re-timed on the surviving hardware — recovery
// never re-plans the past.
//
// A task that had started but whose PE died mid-execution is
// interrupted and rejoins the suffix, as does a finished task whose
// outputs are marooned on a dead tile while a suffix consumer still
// needs them (the producer re-runs on a survivor to regenerate the
// data). When the loss is infeasible — the fabric splits, a task loses
// its last capable PE, or deadline misses survive the suffix repair —
// graceful degradation sheds suffix tasks by criticality until the
// remainder fits, unless DisableShedding asks for the typed errors
// instead.
func ReplayStream(s *sched.Schedule, stream Stream, opts StreamOptions) (*StreamResult, error) {
	if s == nil {
		return nil, fmt.Errorf("fault: nil schedule")
	}
	if err := stream.Validate(); err != nil {
		return nil, err
	}
	endSpan := opts.EAS.Telemetry.T().Span("fault-stream", "online fault stream replay")
	defer endSpan()

	res := &StreamResult{
		Schedule:     s,
		Graph:        s.Graph,
		MissesBefore: len(s.DeadlineMisses()),
		EnergyBefore: s.TotalEnergy(),
	}
	st := &streamState{
		cur:  s,
		g:    s.Graph.Clone(),
		shed: make([]bool, s.Graph.NumTasks()),
	}
	cum := &Scenario{Name: "stream"}
	for _, ev := range coalesceStream(stream) {
		cum.PEs = append(cum.PEs, ev.PEs...)
		cum.Routers = append(cum.Routers, ev.Routers...)
		cum.Links = append(cum.Links, ev.Links...)
		step, err := applyStreamEvent(st, s, cum, ev, opts)
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, *step)
		res.Shed = append(res.Shed, step.Shed...)
		if r := opts.EAS.Telemetry.R(); r != nil {
			r.Counter(MetricStreamEvents).Inc()
			r.Counter(MetricStreamFrozenTasks).Add(int64(step.Frozen))
			r.Counter(MetricStreamRescheduled).Add(int64(step.Rescheduled))
			r.Counter(MetricStreamShed).Add(int64(len(step.Shed)))
		}
	}
	res.Schedule = st.cur
	res.Graph = st.cur.Graph
	res.Degraded = st.d
	return res, nil
}

// applyStreamEvent advances the state across one coalesced event.
func applyStreamEvent(st *streamState, base *sched.Schedule, cum *Scenario, ev StreamEvent, opts StreamOptions) (*StreamStep, error) {
	t := ev.Time
	sc := &Scenario{
		Name:    fmt.Sprintf("stream@%d", t),
		PEs:     append([]noc.TileID(nil), cum.PEs...),
		Routers: append([]noc.TileID(nil), cum.Routers...),
		Links:   append([]noc.LinkID(nil), cum.Links...),
		Cycle:   t,
	}
	d, err := Degrade(base.ACG.Platform(), base.ACG.Model(), sc)
	if errors.Is(err, ErrDisconnected) && !opts.DisableShedding {
		d, err = DegradeRestricted(base.ACG.Platform(), base.ACG.Model(), sc)
	}
	if err != nil {
		return nil, err
	}

	step := &StreamStep{Time: t, Event: ev}
	cur, g := st.cur, st.g
	n := g.NumTasks()

	// Checkpoint: freeze the committed prefix. A task is frozen when it
	// started before t, unless it was cut down mid-execution (its PE
	// died under it) or it is marooned: finished on a now-dead tile with
	// a suffix consumer still owed data from it. Unfreezing a marooned
	// producer can maroon its own producers, so iterate to fixpoint.
	frozen := make([]bool, n)
	for i := range frozen {
		frozen[i] = cur.Tasks[i].Start < t
	}
	for i := range frozen {
		if frozen[i] && cur.Tasks[i].Finish > t && d.DeadPE[cur.Tasks[i].PE] {
			frozen[i] = false
			step.Interrupted++
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if frozen[i] {
				continue
			}
			for _, eid := range g.In(ctg.TaskID(i)) {
				e := g.Edge(eid)
				if e.Volume > 0 && frozen[e.Src] && d.DeadPE[cur.Tasks[e.Src].PE] {
					frozen[e.Src] = false
					step.Interrupted++
					changed = true
				}
			}
		}
	}

	// Transactions delivered into the frozen prefix are history. When
	// the degraded ACG can no longer price one (its source tile lost
	// routing), drain the edge: the data arrived before the fault and
	// will never be re-sent, so it must not poison the energy account
	// with an unroutable-pair infinity.
	for i := 0; i < n; i++ {
		if !frozen[i] {
			continue
		}
		for _, eid := range g.In(ctg.TaskID(i)) {
			e := g.Edge(eid)
			tr := &cur.Transactions[eid]
			if e.Volume > 0 && tr.SrcPE != tr.DstPE && !d.ACG.Reachable(tr.SrcPE, tr.DstPE) {
				e.Volume = 0
			}
		}
	}

	// Suffix tasks the survivors cannot run at all are shed outright
	// (with their not-yet-run closures), or surfaced when shedding is
	// off.
	notFrozen := func(x ctg.TaskID) bool { return !frozen[x] }
	for i := 0; i < n; i++ {
		tid := ctg.TaskID(i)
		if frozen[i] || st.shed[i] || hasAlivePE(g, d, tid) {
			continue
		}
		if opts.DisableShedding {
			return nil, fmt.Errorf("%w: task %d (%q) at stream event t=%d",
				ErrNoCapablePE, tid, g.Task(tid).Name, t)
		}
		step.Shed = append(step.Shed, shedApply(g, tid, st.shed, notFrozen)...)
	}

	dg, err := degradeGraphSuffix(d, g, frozen)
	if err != nil {
		return nil, err
	}

	// Inherit the current assignment; evict suffix tasks stranded on
	// dead or incapable PEs to their cheapest surviving home.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cur.Tasks[i].PE
	}
	for i := 0; i < n; i++ {
		tid := ctg.TaskID(i)
		if frozen[i] {
			continue
		}
		if !d.DeadPE[assign[i]] && dg.Task(tid).RunnableOn(assign[i]) {
			continue
		}
		dst, derr := cheapestAlivePE(dg, d, assign, tid)
		if derr != nil {
			return nil, derr
		}
		assign[i] = dst
	}
	order := suffixOrder(cur, frozen, assign, d.ACG.NumPEs())

	// One builder re-times every candidate hybrid of this event.
	b := sched.NewBuilder(dg, d.ACG, cur.Algorithm)
	hyb, err := rebuildSuffix(b, dg, d, cur, frozen, t, order, nil)
	if err != nil {
		return nil, err
	}

	// Claw back deadlines with bounded suffix migrations, then — if
	// misses survive and shedding is allowed — abandon suffix work by
	// criticality until the remainder fits.
	budget := opts.RepairBudget
	if budget <= 0 {
		budget = DefaultStreamRepairBudget
	}
	hyb, step.RepairMoves, err = repairSuffix(b, dg, d, cur, frozen, t, assign, order, hyb, budget)
	if err != nil {
		return nil, err
	}
	maxShed := opts.Shed.MaxShed
	if maxShed <= 0 {
		maxShed = n
	}
	for !opts.DisableShedding && len(hyb.DeadlineMisses()) > 0 && shedCount(st.shed) < maxShed {
		progressed := false
		for _, c := range shedCandidates(g, hyb, st.shed, notFrozen) {
			gTry := g.Clone()
			maskTry := append([]bool(nil), st.shed...)
			newly := shedApply(gTry, c, maskTry, notFrozen)
			if len(newly) == 0 {
				continue
			}
			dgTry, derr := degradeGraphSuffix(d, gTry, frozen)
			if derr != nil {
				continue
			}
			hybTry, herr := rebuildSuffix(b, dgTry, d, cur, frozen, t, order, hyb)
			if herr != nil || !eas.MetricBetter(hybTry, hyb) {
				continue
			}
			g, dg, hyb = gTry, dgTry, hybTry
			st.g, st.shed = gTry, maskTry
			step.Shed = append(step.Shed, newly...)
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}

	for i := 0; i < n; i++ {
		if frozen[i] {
			step.Frozen++
			continue
		}
		step.Rescheduled++
		if hyb.Tasks[i].PE != cur.Tasks[i].PE {
			step.Migrated++
		}
	}
	step.MissesAfter = len(hyb.DeadlineMisses())
	step.EnergyAfter = hyb.TotalEnergy()
	st.cur, st.d = hyb, d
	return step, nil
}

// degradeGraphSuffix is Degraded.DegradeGraph restricted to the tasks
// that still need a PE: dead PEs are marked incapable for suffix tasks
// only, and only suffix tasks must stay runnable somewhere — a frozen
// task that completed on since-dead hardware is history, not an error.
func degradeGraphSuffix(d *Degraded, g *ctg.Graph, frozen []bool) (*ctg.Graph, error) {
	cp := g.Clone()
	for i := 0; i < cp.NumTasks(); i++ {
		if frozen[i] {
			continue
		}
		task := cp.Task(ctg.TaskID(i))
		alive := false
		for k := range task.ExecTime {
			if k < len(d.DeadPE) && d.DeadPE[k] {
				task.ExecTime[k] = -1
				continue
			}
			if task.ExecTime[k] >= 0 {
				alive = true
			}
		}
		if !alive {
			return nil, fmt.Errorf("%w: task %d (%q) under scenario %q",
				ErrNoCapablePE, task.ID, task.Name, d.Scenario.Name)
		}
	}
	return cp, nil
}

// suffixOrder distributes the suffix tasks over their assigned PEs in
// ascending previous-start order, the local execution order the repair
// machinery perturbs.
func suffixOrder(cur *sched.Schedule, frozen []bool, assign []int, npes int) [][]ctg.TaskID {
	var suffix []ctg.TaskID
	for i := range frozen {
		if !frozen[i] {
			suffix = append(suffix, ctg.TaskID(i))
		}
	}
	sort.Slice(suffix, func(a, b int) bool {
		sa, sb := cur.Tasks[suffix[a]].Start, cur.Tasks[suffix[b]].Start
		if sa != sb {
			return sa < sb
		}
		return suffix[a] < suffix[b]
	})
	order := make([][]ctg.TaskID, npes)
	for _, tid := range suffix {
		order[assign[tid]] = append(order[assign[tid]], tid)
	}
	return order
}

// rebuildSuffix derives the hybrid schedule for one event on b: the
// blocked prefix [0, t) is reserved everywhere, frozen placements are
// committed verbatim (in-flight tails extend their PE reservations past
// t), and the suffix is committed by Builder.CommitOrder with every
// start floored at t — the floor, not the block, is what pins zero-width
// tasks past the checkpoint. With a non-nil incumbent the rebuild fails
// with sched.ErrStopped once it can no longer win on eas.MetricBetter.
func rebuildSuffix(b *sched.Builder, dg *ctg.Graph, d *Degraded, prev *sched.Schedule, frozen []bool, t int64, order [][]ctg.TaskID, incumbent *sched.Schedule) (*sched.Schedule, error) {
	b.Reset(dg, d.ACG)
	if err := b.BlockPast(t); err != nil {
		return nil, err
	}
	floor := make([]int64, len(order))
	for k := range floor {
		floor[k] = t
	}
	for i := range frozen {
		if !frozen[i] {
			continue
		}
		tp := prev.Tasks[i]
		var trans []sched.TransactionPlacement
		for _, eid := range dg.In(ctg.TaskID(i)) {
			trans = append(trans, prev.Transactions[eid])
		}
		if err := b.CommitFrozen(tp, trans); err != nil {
			return nil, err
		}
		if !d.DeadPE[tp.PE] && tp.Finish > floor[tp.PE] {
			floor[tp.PE] = tp.Finish
		}
	}
	var stop func(ctg.TaskID) bool
	if incumbent != nil {
		stop = eas.AbandonWorse(b, incumbent)
	}
	if err := b.CommitOrder(order, floor, stop); err != nil {
		return nil, err
	}
	return b.Finish()
}

// repairSuffix claws back deadline misses with suffix-only migrations:
// missed tasks and their suffix ancestors, latest start first, are
// offered alternative surviving PEs in ascending energy order; a move
// is kept only when the hybrid rebuilt on b beats the incumbent under
// eas.MetricBetter. Budget caps attempted (not accepted) moves. The
// inherited assign/order are updated in place for accepted moves.
func repairSuffix(b *sched.Builder, dg *ctg.Graph, d *Degraded, prev *sched.Schedule, frozen []bool, t int64, assign []int, order [][]ctg.TaskID, hyb *sched.Schedule, budget int) (*sched.Schedule, int, error) {
	moves := 0
	for budget > 0 && len(hyb.DeadlineMisses()) > 0 {
		improved := false
	search:
		for _, c := range suffixRepairCandidates(dg, hyb, frozen) {
			for _, k := range eas.PEsByEnergy(dg, d.ACG, assign, c, d.DeadPE) {
				if k == assign[c] {
					continue
				}
				if budget <= 0 {
					break search
				}
				budget--
				oldPE := assign[c]
				moveTask(hyb, order, assign, c, k)
				cand, err := rebuildSuffix(b, dg, d, prev, frozen, t, order, hyb)
				if err == nil && eas.MetricBetter(cand, hyb) {
					hyb = cand
					moves++
					improved = true
					break search
				}
				moveTask(hyb, order, assign, c, oldPE)
			}
		}
		if !improved {
			break
		}
	}
	return hyb, moves, nil
}

// suffixRepairCandidates returns the suffix tasks worth migrating:
// every missed-deadline task and its suffix ancestors, latest previous
// start first (the repair pipeline's critical-task order).
func suffixRepairCandidates(dg *ctg.Graph, hyb *sched.Schedule, frozen []bool) []ctg.TaskID {
	seen := make(map[ctg.TaskID]bool)
	var cands []ctg.TaskID
	add := func(x ctg.TaskID) {
		if !frozen[x] && !seen[x] {
			seen[x] = true
			cands = append(cands, x)
		}
	}
	for _, m := range hyb.DeadlineMisses() {
		add(m)
		for _, a := range dg.Ancestors(m) {
			add(a)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return hyb.Tasks[cands[i]].Start > hyb.Tasks[cands[j]].Start
	})
	return cands
}

// coalesceStream sorts the stream by time and merges same-instant
// events, copying the fault lists so the caller's stream is never
// aliased.
func coalesceStream(st Stream) []StreamEvent {
	evs := append(Stream(nil), st...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	var out []StreamEvent
	for _, ev := range evs {
		if len(out) > 0 && out[len(out)-1].Time == ev.Time {
			last := &out[len(out)-1]
			last.PEs = append(last.PEs, ev.PEs...)
			last.Routers = append(last.Routers, ev.Routers...)
			last.Links = append(last.Links, ev.Links...)
			continue
		}
		out = append(out, StreamEvent{
			Time:    ev.Time,
			PEs:     append([]noc.TileID(nil), ev.PEs...),
			Routers: append([]noc.TileID(nil), ev.Routers...),
			Links:   append([]noc.LinkID(nil), ev.Links...),
		})
	}
	return out
}

// shedCount counts set bits in a shed mask.
func shedCount(shed []bool) int {
	n := 0
	for _, s := range shed {
		if s {
			n++
		}
	}
	return n
}
