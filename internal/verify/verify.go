package verify

import (
	"fmt"
	"math"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
)

// Options tunes a verification run.
type Options struct {
	// MaxFindings caps the number of findings collected
	// (DefaultMaxFindings when <= 0); Report.Truncated is set when the
	// cap is hit.
	MaxFindings int
}

// DefaultMaxFindings bounds report size for pathological inputs.
const DefaultMaxFindings = 1024

// Check verifies a schedule under default options. It never mutates
// the schedule and never panics on malformed placements: every defect
// becomes a typed finding. The graph and ACG attached to the
// schedule are trusted (they carry their own validation); only the
// placements are in question.
func Check(s *sched.Schedule) *Report { return CheckOptions(s, Options{}) }

// CheckOptions verifies a schedule under explicit options.
func CheckOptions(s *sched.Schedule, opts Options) *Report {
	max := opts.MaxFindings
	if max <= 0 {
		max = DefaultMaxFindings
	}
	c := &checker{s: s, max: max, r: &Report{}}
	c.run()
	return c.r
}

// checker walks one schedule. All methods are read-only with respect
// to the schedule.
type checker struct {
	s   *sched.Schedule
	max int
	r   *Report

	// unsafe records that an identifier was out of range, so the
	// schedule's own energy accessors would misindex; the energy
	// comparison is skipped (the shape findings explain why).
	unsafe bool
}

func (c *checker) add(f Finding) {
	if len(c.r.Findings) >= c.max {
		c.r.Truncated = true
		return
	}
	c.r.Findings = append(c.r.Findings, f)
}

// f constructs a finding with -1 sentinels pre-filled.
func find(class Class, detail string) Finding {
	return Finding{Class: class, Task: -1, Edge: -1, PE: -1, Link: -1, Detail: detail}
}

func (c *checker) run() {
	s := c.s
	if s == nil || s.Graph == nil || s.ACG == nil {
		c.add(find(ClassShape, "nil schedule, graph, or ACG"))
		return
	}
	g, acg := s.Graph, s.ACG
	if g.NumPEs() != acg.NumPEs() {
		c.add(find(ClassShape, fmt.Sprintf(
			"graph characterizes %d PEs but ACG has %d; cannot verify",
			g.NumPEs(), acg.NumPEs())))
		return
	}
	c.checkShape()
	c.checkTasks()
	c.checkPEExclusion()
	c.checkTransactions()
	c.checkLinkCapacity()
	c.checkDeadlines()
	if !c.unsafe {
		c.checkEnergy()
	}
}

func (c *checker) checkShape() {
	s, g := c.s, c.s.Graph
	if len(s.Tasks) != g.NumTasks() {
		c.add(find(ClassShape, fmt.Sprintf("schedule has %d task slots, graph has %d tasks",
			len(s.Tasks), g.NumTasks())))
		c.unsafe = true
	}
	if len(s.Transactions) != g.NumEdges() {
		c.add(find(ClassShape, fmt.Sprintf("schedule has %d transaction slots, graph has %d edges",
			len(s.Transactions), g.NumEdges())))
		c.unsafe = true
	}
	for i := range s.Tasks {
		if i >= g.NumTasks() {
			break
		}
		if s.Tasks[i].Task != ctg.TaskID(i) {
			f := find(ClassShape, fmt.Sprintf("task slot %d holds task %d", i, s.Tasks[i].Task))
			f.Task = ctg.TaskID(i)
			c.add(f)
			c.unsafe = true
		}
	}
	for i := range s.Transactions {
		if i >= g.NumEdges() {
			break
		}
		if s.Transactions[i].Edge != ctg.EdgeID(i) {
			f := find(ClassShape, fmt.Sprintf("transaction slot %d holds edge %d", i, s.Transactions[i].Edge))
			f.Edge = ctg.EdgeID(i)
			c.add(f)
			c.unsafe = true
		}
	}
}

// peOK reports whether a task slot's PE index is usable.
func (c *checker) peOK(p *sched.TaskPlacement) bool {
	return p.PE >= 0 && p.PE < c.s.ACG.NumPEs()
}

func (c *checker) checkTasks() {
	s, g := c.s, c.s.Graph
	n := len(s.Tasks)
	if m := g.NumTasks(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		p := &s.Tasks[i]
		t := g.Task(ctg.TaskID(i))
		if !c.peOK(p) {
			f := find(ClassShape, fmt.Sprintf("task %d on out-of-range PE %d (platform has %d)",
				i, p.PE, s.ACG.NumPEs()))
			f.Task = ctg.TaskID(i)
			c.add(f)
			c.unsafe = true
			continue
		}
		if !t.RunnableOn(p.PE) {
			f := find(ClassTask, fmt.Sprintf("task %d placed on PE %d, which cannot run it", i, p.PE))
			f.Task, f.PE = ctg.TaskID(i), p.PE
			c.add(f)
			continue
		}
		if p.Start < 0 {
			f := find(ClassTask, fmt.Sprintf("task %d starts at negative time %d", i, p.Start))
			f.Task, f.PE = ctg.TaskID(i), p.PE
			c.add(f)
		}
		if want := p.Start + t.ExecTime[p.PE]; p.Finish != want {
			f := find(ClassTask, fmt.Sprintf("task %d finish %d, want %d (start %d + exec %d on PE %d)",
				i, p.Finish, want, p.Start, t.ExecTime[p.PE], p.PE))
			f.Task, f.PE = ctg.TaskID(i), p.PE
			c.add(f)
		}
	}
}

// checkPEExclusion is Definition 4 re-derived by a sweep over each
// PE's placements sorted by start time: a task starting before the
// latest finish seen so far overlaps some earlier task.
func (c *checker) checkPEExclusion() {
	s := c.s
	perPE := make([][]ctg.TaskID, s.ACG.NumPEs())
	n := len(s.Tasks)
	if m := s.Graph.NumTasks(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		p := &s.Tasks[i]
		if !c.peOK(p) || p.Finish <= p.Start {
			continue // out of range (already flagged) or zero-width: no occupancy
		}
		perPE[p.PE] = append(perPE[p.PE], ctg.TaskID(i))
	}
	for pe, tasks := range perPE {
		sort.Slice(tasks, func(a, b int) bool {
			sa, sb := s.Tasks[tasks[a]].Start, s.Tasks[tasks[b]].Start
			if sa != sb {
				return sa < sb
			}
			return tasks[a] < tasks[b]
		})
		latest := ctg.TaskID(-1)
		var latestFinish int64
		for _, id := range tasks {
			p := &s.Tasks[id]
			if latest >= 0 && p.Start < latestFinish {
				q := &s.Tasks[latest]
				f := find(ClassPEOverlap, fmt.Sprintf(
					"tasks %d [%d,%d) and %d [%d,%d) overlap on PE %d",
					latest, q.Start, q.Finish, id, p.Start, p.Finish, pe))
				f.Task, f.PE = id, pe
				c.add(f)
			}
			if p.Finish > latestFinish {
				latest, latestFinish = id, p.Finish
			}
		}
	}
}

func (c *checker) checkTransactions() {
	s, g, acg := c.s, c.s.Graph, c.s.ACG
	platform := acg.Platform()
	bw := platform.LinkBandwidth
	n := len(s.Transactions)
	if m := g.NumEdges(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		tr := &s.Transactions[i]
		if tr.Edge < 0 || int(tr.Edge) >= g.NumEdges() {
			c.unsafe = true
			continue // slot mismatch already flagged by checkShape
		}
		e := g.Edge(tr.Edge)
		if tr.SrcPE < 0 || tr.SrcPE >= acg.NumPEs() || tr.DstPE < 0 || tr.DstPE >= acg.NumPEs() {
			f := find(ClassShape, fmt.Sprintf("transaction %d endpoints PE %d -> PE %d out of range (platform has %d)",
				tr.Edge, tr.SrcPE, tr.DstPE, acg.NumPEs()))
			f.Edge = tr.Edge
			c.add(f)
			c.unsafe = true
			continue
		}
		if int(e.Src) < len(s.Tasks) && int(e.Dst) < len(s.Tasks) {
			src, dst := &s.Tasks[e.Src], &s.Tasks[e.Dst]
			if tr.SrcPE != src.PE || tr.DstPE != dst.PE {
				f := find(ClassPrecedence, fmt.Sprintf(
					"transaction %d PEs (%d->%d) disagree with task placement (%d->%d)",
					tr.Edge, tr.SrcPE, tr.DstPE, src.PE, dst.PE))
				f.Edge = tr.Edge
				c.add(f)
			}
			if tr.Start < src.Finish {
				f := find(ClassPrecedence, fmt.Sprintf(
					"transaction %d starts at %d before sender task %d finishes at %d",
					tr.Edge, tr.Start, e.Src, src.Finish))
				f.Edge, f.Task = tr.Edge, e.Src
				c.add(f)
			}
			if tr.Finish > dst.Start {
				f := find(ClassPrecedence, fmt.Sprintf(
					"transaction %d finishes at %d after receiver task %d starts at %d",
					tr.Edge, tr.Finish, e.Dst, dst.Start))
				f.Edge, f.Task = tr.Edge, e.Dst
				c.add(f)
			}
		}
		// Transfer time re-derived from the platform bandwidth alone
		// (Sec. 3.2: ceil(volume / link bandwidth) cycles), independent
		// of the ACG's cached transfer times.
		var wantDur int64
		if e.Volume > 0 && tr.SrcPE != tr.DstPE && bw > 0 {
			wantDur = (e.Volume + bw - 1) / bw
		}
		if tr.Finish-tr.Start != wantDur {
			f := find(ClassPrecedence, fmt.Sprintf(
				"transaction %d lasts %d, want %d (volume %d over bandwidth %d)",
				tr.Edge, tr.Finish-tr.Start, wantDur, e.Volume, bw))
			f.Edge = tr.Edge
			c.add(f)
		}
		c.checkRoute(tr, wantDur)
	}
}

// checkRoute verifies one transaction's route from first principles
// against the topology: it must be a connected chain of existing links
// from the source tile to the destination tile, never revisiting a
// link, and it must match the ACG's deterministic route (the paper's
// static XY/shortest-path routing); zero-time transactions must not
// occupy the network at all.
func (c *checker) checkRoute(tr *sched.TransactionPlacement, wantDur int64) {
	acg := c.s.ACG
	topo := acg.Platform().Topo
	numLinks := topo.NumLinks()
	if wantDur == 0 {
		if len(tr.Route) != 0 {
			f := find(ClassRoute, fmt.Sprintf("zero-time transaction %d occupies a %d-link route",
				tr.Edge, len(tr.Route)))
			f.Edge = tr.Edge
			c.add(f)
		}
		return
	}
	if len(tr.Route) == 0 {
		f := find(ClassRoute, fmt.Sprintf("transaction %d (PE %d -> PE %d) carries data but has no route",
			tr.Edge, tr.SrcPE, tr.DstPE))
		f.Edge = tr.Edge
		c.add(f)
		return
	}
	at := noc.TileID(tr.SrcPE)
	seen := make(map[noc.LinkID]bool, len(tr.Route))
	for hop, id := range tr.Route {
		if id < 0 || int(id) >= numLinks {
			f := find(ClassShape, fmt.Sprintf("transaction %d route hop %d uses out-of-range link %d (topology has %d)",
				tr.Edge, hop, id, numLinks))
			f.Edge = tr.Edge
			c.add(f)
			return
		}
		if seen[id] {
			f := find(ClassRoute, fmt.Sprintf("transaction %d route revisits link %d at hop %d",
				tr.Edge, id, hop))
			f.Edge, f.Link = tr.Edge, id
			c.add(f)
			return
		}
		seen[id] = true
		l := topo.Link(id)
		if l.From != at {
			f := find(ClassRoute, fmt.Sprintf(
				"transaction %d route breaks at hop %d: link %d leaves tile %d but the chain is at tile %d",
				tr.Edge, hop, id, l.From, at))
			f.Edge, f.Link = tr.Edge, id
			c.add(f)
			return
		}
		at = l.To
	}
	if at != noc.TileID(tr.DstPE) {
		f := find(ClassRoute, fmt.Sprintf(
			"transaction %d route ends at tile %d, not destination tile %d",
			tr.Edge, at, tr.DstPE))
		f.Edge = tr.Edge
		c.add(f)
		return
	}
	want := acg.Route(tr.SrcPE, tr.DstPE)
	if len(tr.Route) != len(want) {
		f := find(ClassRoute, fmt.Sprintf("transaction %d route length %d, ACG deterministic route has %d links",
			tr.Edge, len(tr.Route), len(want)))
		f.Edge = tr.Edge
		c.add(f)
		return
	}
	for j := range want {
		if tr.Route[j] != want[j] {
			f := find(ClassRoute, fmt.Sprintf("transaction %d deviates from the ACG deterministic route at hop %d",
				tr.Edge, j))
			f.Edge, f.Link = tr.Edge, tr.Route[j]
			c.add(f)
			return
		}
	}
}

// checkLinkCapacity is Definition 3 re-derived: collect every
// transaction's occupancy of every link on its recorded route and
// sweep each link's slots in start order.
func (c *checker) checkLinkCapacity() {
	s := c.s
	numLinks := s.ACG.Platform().Topo.NumLinks()
	type slot struct {
		edge       ctg.EdgeID
		start, end int64
	}
	perLink := make([][]slot, numLinks)
	n := len(s.Transactions)
	if m := s.Graph.NumEdges(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		tr := &s.Transactions[i]
		if tr.Finish <= tr.Start {
			continue
		}
		for _, id := range tr.Route {
			if id < 0 || int(id) >= numLinks {
				continue // flagged by checkRoute
			}
			perLink[id] = append(perLink[id], slot{edge: tr.Edge, start: tr.Start, end: tr.Finish})
		}
	}
	for link, slots := range perLink {
		sort.Slice(slots, func(a, b int) bool {
			if slots[a].start != slots[b].start {
				return slots[a].start < slots[b].start
			}
			return slots[a].edge < slots[b].edge
		})
		latest, latestEnd := ctg.EdgeID(-1), int64(0)
		for _, sl := range slots {
			if latest >= 0 && sl.start < latestEnd {
				f := find(ClassLinkOverlap, fmt.Sprintf(
					"transactions %d and %d overlap on link %d (ends %d, starts %d)",
					latest, sl.edge, link, latestEnd, sl.start))
				f.Edge, f.Link = sl.edge, noc.LinkID(link)
				c.add(f)
			}
			if sl.end > latestEnd {
				latest, latestEnd = sl.edge, sl.end
			}
		}
	}
}

func (c *checker) checkDeadlines() {
	s, g := c.s, c.s.Graph
	n := len(s.Tasks)
	if m := g.NumTasks(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		p := &s.Tasks[i]
		t := g.Task(ctg.TaskID(i))
		if t.HasDeadline() && p.Finish > t.Deadline {
			f := find(ClassDeadline, fmt.Sprintf("task %d finishes at %d, %d past its deadline %d",
				i, p.Finish, p.Finish-t.Deadline, t.Deadline))
			f.Task = ctg.TaskID(i)
			if c.peOK(p) {
				f.PE = p.PE
			}
			c.add(f)
		}
	}
}

// checkEnergy re-derives Eq. (3)'s two terms and Eq. (2)'s
// switch/link split from the graph, the energy model, and the hop
// counts, then compares bit-for-bit (0 ULP) against the schedule's own
// accessors. The mirror follows the exact operation and accumulation
// order of ComputationEnergy / CommunicationEnergy / CommEnergySplit,
// so any divergence — a placement edited without re-accounting, an
// ACG/route inconsistency, a float reassociation sneaking into the
// accessors — surfaces as a mismatch. The per-bit price is derived
// from the model (Eq. 2) and only falls back to the ACG's pair price
// when they differ, i.e. for deliberately weighted ACGs.
func (c *checker) checkEnergy() {
	s, g, acg := c.s, c.s.Graph, c.s.ACG
	model := acg.Model()

	comp := 0.0
	for i := range s.Tasks {
		p := &s.Tasks[i]
		comp += g.Task(p.Task).Energy[p.PE]
	}

	comm, sw, lk := 0.0, 0.0, 0.0
	for i := range s.Transactions {
		tr := &s.Transactions[i]
		vol := g.Edge(tr.Edge).Volume
		if vol <= 0 || tr.SrcPE == tr.DstPE {
			continue
		}
		hops := acg.Hops(tr.SrcPE, tr.DstPE)
		ebit := model.BitEnergy(hops)
		if pair := acg.BitEnergy(tr.SrcPE, tr.DstPE); pair != ebit {
			ebit = pair
		}
		total := float64(vol) * ebit
		comm += total
		if hops <= 0 {
			f := find(ClassEnergy, fmt.Sprintf(
				"transaction %d carries %d bits over PE %d -> PE %d with no route (hops %d): energy unaccountable",
				tr.Edge, vol, tr.SrcPE, tr.DstPE, hops))
			f.Edge = tr.Edge
			c.add(f)
			continue
		}
		swPart := float64(vol) * float64(hops) * model.ESbit
		sw += swPart
		lk += total - swPart
	}

	c.compareEnergy("computation energy (Eq. 3 first term)", comp, s.ComputationEnergy())
	c.compareEnergy("communication energy (Eq. 3 second term)", comm, s.CommunicationEnergy())
	gotSw, gotLk := s.CommEnergySplit()
	c.compareEnergy("switch energy (Eq. 2 ESbit share)", sw, gotSw)
	c.compareEnergy("link energy (Eq. 2 ELbit share)", lk, gotLk)
}

// compareEnergy emits a ClassEnergy finding unless the re-derived
// value equals the reported one bit-for-bit (+0 and -0 compare equal;
// NaN never does and is always a finding).
func (c *checker) compareEnergy(what string, derived, reported float64) {
	if derived == reported {
		return
	}
	c.add(find(ClassEnergy, fmt.Sprintf(
		"%s: schedule reports %v, oracle derives %v (%s)",
		what, reported, derived, ulpDistance(derived, reported))))
}

// ulpDistance describes how far apart two floats are in units of least
// precision, for finding details.
func ulpDistance(a, b float64) string {
	if math.IsNaN(a) || math.IsNaN(b) {
		return "NaN"
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return "infinite"
	}
	ua, ub := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude float ordering onto a linear integer scale.
	if ua < 0 {
		ua = math.MinInt64 - ua
	}
	if ub < 0 {
		ub = math.MinInt64 - ub
	}
	d := ua - ub
	if d < 0 {
		d = -d
	}
	return fmt.Sprintf("%d ULP", d)
}
