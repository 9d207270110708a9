package fault

import (
	"fmt"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
)

// Degraded is a platform with a scenario applied: the same tiles and
// link IDs as the base platform, but with dead hardware removed from
// routing and dead PEs flagged. Schedules produced against a Degraded
// (via its ACG and a graph from DegradeGraph) validate and replay on
// the surviving hardware.
type Degraded struct {
	// Scenario is the applied fault set.
	Scenario *Scenario
	// Base is the fault-free platform the scenario was applied to.
	Base *noc.Platform
	// Platform is the degraded platform: the base PE classes and link
	// bandwidth over the degraded topology.
	Platform *noc.Platform
	// Topology is Platform.Topo, typed.
	Topology *noc.DegradedTopology
	// ACG is the partial architecture characterization graph of the
	// degraded platform (pairs involving dead routers are unroutable).
	ACG *energy.ACG
	// DeadPE[k] is true when tile k can no longer execute tasks
	// (its PE or its router died).
	DeadPE []bool
}

// Degrade applies a scenario to a platform under an energy model. It
// returns an error wrapping ErrDisconnected when the surviving tiles
// are no longer mutually reachable; a validation error reports an
// ill-formed scenario (unknown tiles or links). A scenario that kills
// every PE is reported via ErrNoCapablePE at DegradeGraph time.
func Degrade(p *noc.Platform, m energy.Model, sc *Scenario) (*Degraded, error) {
	if sc == nil {
		sc = &Scenario{}
	}
	if err := sc.Validate(p); err != nil {
		return nil, err
	}
	topo, err := noc.NewDegradedTopology(p.Topo, sc.Routers, sc.Links)
	if err != nil {
		return nil, err
	}
	if pairs := topo.UnreachablePairs(); len(pairs) > 0 {
		return nil, fmt.Errorf("%w: scenario %q leaves %d tile pairs unreachable (e.g. %d->%d)",
			ErrDisconnected, sc.Name, len(pairs), pairs[0][0], pairs[0][1])
	}
	platform, err := noc.NewPlatform(topo, p.Classes, p.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	acg, err := energy.BuildACGPartial(platform, m)
	if err != nil {
		return nil, err
	}
	d := &Degraded{
		Scenario: sc,
		Base:     p,
		Platform: platform,
		Topology: topo,
		ACG:      acg,
		DeadPE:   make([]bool, p.NumPEs()),
	}
	for k := range d.DeadPE {
		d.DeadPE[k] = sc.DeadPE(noc.TileID(k))
	}
	return d, nil
}

// DegradeRestricted applies a scenario like Degrade but survives a
// disconnected fabric: instead of failing with ErrDisconnected it
// restricts execution to the largest surviving island — the mutually-
// reachable component of alive routers holding the most alive PEs —
// and marks every PE outside it dead. Mutual reachability is an
// equivalence here (routes are symmetric compositions of bidirectional
// links), so the islands partition the alive tiles. It still returns an
// error wrapping ErrNoCapablePE when the fabric split but no island
// retains a single PE; a scenario that kills every PE without
// splitting anything is, like Degrade, reported at DegradeGraph time.
func DegradeRestricted(p *noc.Platform, m energy.Model, sc *Scenario) (*Degraded, error) {
	if sc == nil {
		sc = &Scenario{}
	}
	if err := sc.Validate(p); err != nil {
		return nil, err
	}
	topo, err := noc.NewDegradedTopology(p.Topo, sc.Routers, sc.Links)
	if err != nil {
		return nil, err
	}
	platform, err := noc.NewPlatform(topo, p.Classes, p.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	acg, err := energy.BuildACGPartial(platform, m)
	if err != nil {
		return nil, err
	}
	d := &Degraded{
		Scenario: sc,
		Base:     p,
		Platform: platform,
		Topology: topo,
		ACG:      acg,
		DeadPE:   make([]bool, p.NumPEs()),
	}
	for k := range d.DeadPE {
		d.DeadPE[k] = sc.DeadPE(noc.TileID(k))
	}
	if len(topo.UnreachablePairs()) == 0 {
		return d, nil // fabric intact: identical to Degrade
	}
	n := p.NumPEs()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if topo.DeadRouter(noc.TileID(i)) || comp[i] >= 0 {
			continue
		}
		comp[i] = nc
		for j := i + 1; j < n; j++ {
			if topo.DeadRouter(noc.TileID(j)) || comp[j] >= 0 {
				continue
			}
			if topo.Hops(noc.TileID(i), noc.TileID(j)) >= 0 &&
				topo.Hops(noc.TileID(j), noc.TileID(i)) >= 0 {
				comp[j] = nc
			}
		}
		nc++
	}
	counts := make([]int, nc)
	for i := 0; i < n; i++ {
		if comp[i] >= 0 && !d.DeadPE[i] {
			counts[comp[i]]++
		}
	}
	bestC, bestAlive := -1, 0
	for c, cnt := range counts {
		if cnt > bestAlive {
			bestC, bestAlive = c, cnt
		}
	}
	if bestC < 0 {
		return nil, fmt.Errorf("%w: scenario %q leaves no island with an alive PE",
			ErrNoCapablePE, sc.Name)
	}
	for i := 0; i < n; i++ {
		if comp[i] != bestC {
			d.DeadPE[i] = true
		}
	}
	return d, nil
}

// AlivePEs returns the number of tiles that can still execute tasks.
func (d *Degraded) AlivePEs() int {
	alive := 0
	for _, dead := range d.DeadPE {
		if !dead {
			alive++
		}
	}
	return alive
}

// DegradeGraph returns a copy of g with every dead PE marked incapable
// in each task's per-PE table, so no scheduler can place work on dead
// hardware. It returns an error wrapping ErrNoCapablePE when a task is
// left with no PE at all.
func (d *Degraded) DegradeGraph(g *ctg.Graph) (*ctg.Graph, error) {
	cp := g.Clone()
	for i := 0; i < cp.NumTasks(); i++ {
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

// Triage classifies what a scenario invalidates in a schedule.
type Triage struct {
	// StrandedTasks are tasks mapped on PEs the scenario killed; they
	// must migrate.
	StrandedTasks []ctg.TaskID
	// SeveredTransactions are data transactions whose scheduled route
	// uses a dead link or transits a dead router; their endpoints may
	// survive but the traffic must be re-routed and re-timed.
	SeveredTransactions []ctg.EdgeID
}

// Triage inspects a fault-free schedule against the degraded platform
// and reports which of its placements the scenario invalidates.
func (d *Degraded) Triage(s *sched.Schedule) Triage {
	var tr Triage
	for i := range s.Tasks {
		if d.DeadPE[s.Tasks[i].PE] {
			tr.StrandedTasks = append(tr.StrandedTasks, s.Tasks[i].Task)
		}
	}
	for i := range s.Transactions {
		t := &s.Transactions[i]
		for _, l := range t.Route {
			if d.Topology.DeadLink(l) {
				tr.SeveredTransactions = append(tr.SeveredTransactions, t.Edge)
				break
			}
		}
	}
	return tr
}
