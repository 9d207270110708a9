// Package fault describes permanent hardware failures of a NoC
// platform — dead processing elements, routers and links — as
// JSON-serializable scenarios for the flit-level simulator.
//
// The paper schedules a CTG onto a fault-free mesh. A Scenario names
// which resources died; SimFaults turns it into sim.Options.Faults, so
// a static schedule can be replayed against the failure to see which
// packets are lost. Random draws reproducible scenarios for sweeps.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"nocsched/internal/noc"
	"nocsched/internal/sim"
)

// Scenario is one JSON-serializable fault set: the permanent failures
// to apply to a platform. The zero value is the fault-free scenario.
//
//	{
//	  "name": "corner-blast",
//	  "pes": [5],          // dead processing elements (router survives)
//	  "routers": [10],     // dead routers (tile fully out of service)
//	  "links": [3, 17],    // dead directed links
//	  "cycle": 0           // simulator injection time
//	}
type Scenario struct {
	Name string `json:"name,omitempty"`
	// PEs lists tiles whose processing element died. The tile's router
	// keeps forwarding through traffic, so routes crossing the tile
	// survive; only computation on it is lost.
	PEs []noc.TileID `json:"pes,omitempty"`
	// Routers lists tiles whose router died, taking the whole tile out
	// of service: its PE and every adjacent link are lost.
	Routers []noc.TileID `json:"routers,omitempty"`
	// Links lists dead directed links (base-topology link IDs).
	Links []noc.LinkID `json:"links,omitempty"`
	// Cycle is the activation time used when the scenario is injected
	// into the flit-level simulator (SimFaults).
	Cycle int64 `json:"cycle,omitempty"`
}

// NumFaults returns the number of failed resources in the scenario.
func (sc *Scenario) NumFaults() int {
	return len(sc.PEs) + len(sc.Routers) + len(sc.Links)
}

// Validate checks the scenario against a platform: every named tile and
// link must exist and the cycle must be non-negative. Duplicates are
// permitted (fault sets are sets).
func (sc *Scenario) Validate(p *noc.Platform) error {
	if p == nil {
		return fmt.Errorf("fault: nil platform")
	}
	n, nl := p.Topo.NumTiles(), p.Topo.NumLinks()
	for _, t := range sc.PEs {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("fault: scenario %q: PE tile %d out of range [0,%d)", sc.Name, t, n)
		}
	}
	for _, t := range sc.Routers {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("fault: scenario %q: router tile %d out of range [0,%d)", sc.Name, t, n)
		}
	}
	for _, l := range sc.Links {
		if l < 0 || int(l) >= nl {
			return fmt.Errorf("fault: scenario %q: link %d out of range [0,%d)", sc.Name, l, nl)
		}
	}
	if sc.Cycle < 0 {
		return fmt.Errorf("fault: scenario %q: negative cycle %d", sc.Name, sc.Cycle)
	}
	return nil
}

// DeadPE reports whether the scenario kills computation on tile t,
// either directly (PE fault) or via the tile's router.
func (sc *Scenario) DeadPE(t noc.TileID) bool {
	for _, d := range sc.PEs {
		if d == t {
			return true
		}
	}
	for _, d := range sc.Routers {
		if d == t {
			return true
		}
	}
	return false
}

// SimFaults converts the scenario into simulator fault injections
// activating at the scenario's Cycle, for replaying a schedule against
// the failure (see sim.Options.Faults). Scenario fault sets tolerate
// duplicate entries but the simulator rejects duplicate injections, so
// the conversion dedupes.
func (sc *Scenario) SimFaults() []sim.Fault {
	faults := make([]sim.Fault, 0, sc.NumFaults())
	seen := make(map[sim.Fault]bool, sc.NumFaults())
	add := func(f sim.Fault) {
		if !seen[f] {
			seen[f] = true
			faults = append(faults, f)
		}
	}
	for _, t := range sc.PEs {
		add(sim.Fault{Kind: sim.FaultPE, Tile: t, Cycle: sc.Cycle})
	}
	for _, t := range sc.Routers {
		add(sim.Fault{Kind: sim.FaultRouter, Tile: t, Cycle: sc.Cycle})
	}
	for _, l := range sc.Links {
		add(sim.Fault{Kind: sim.FaultLink, Link: l, Cycle: sc.Cycle})
	}
	return faults
}

// WriteJSON serializes the scenario.
func (sc *Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// ReadScenario decodes a scenario from JSON. Callers validate against
// their platform with Scenario.Validate.
func ReadScenario(r io.Reader) (*Scenario, error) {
	var sc Scenario
	if err := json.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("fault: decode scenario: %w", err)
	}
	return &sc, nil
}

// Random draws a k-fault scenario over the platform's resources from
// the injected random stream: each fault is a PE, router or link
// failure with equal probability per resource. The same rng state
// yields the same scenario, so sweeps are reproducible from a seed.
//
// Draws are without replacement (every fault names a distinct
// resource), k is capped at the resource population, and a draw that
// would kill the last surviving PE is rejected — a scenario that
// strands the entire workload sweeps nothing.
func Random(rng *rand.Rand, p *noc.Platform, k int) *Scenario {
	sc := &Scenario{Name: fmt.Sprintf("random-%dfault", k)}
	n, nl := p.Topo.NumTiles(), p.Topo.NumLinks()
	population := 2*n + nl
	if k > population {
		k = population
	}
	used := make(map[int]bool, k)
	deadPE := make([]bool, n)
	alive := n
	for drawn, attempts := 0, 0; drawn < k && attempts < 16*population; attempts++ {
		r := rng.Intn(population)
		if used[r] {
			continue
		}
		kills := -1
		if r < 2*n {
			if tile := r % n; !deadPE[tile] {
				kills = tile
			}
		}
		if kills >= 0 && alive == 1 {
			continue
		}
		used[r] = true
		if kills >= 0 {
			deadPE[kills] = true
			alive--
		}
		switch {
		case r < n:
			sc.PEs = append(sc.PEs, noc.TileID(r))
		case r < 2*n:
			sc.Routers = append(sc.Routers, noc.TileID(r-n))
		default:
			sc.Links = append(sc.Links, noc.LinkID(r-2*n))
		}
		drawn++
	}
	return sc
}
