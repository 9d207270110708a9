// Package energy implements the paper's NoC communication energy model
// (Sec. 3.2) and the Architecture Characterization Graph (Definition 2).
//
// The model is the bit-energy metric of Ye et al. [12] in the
// register-buffered form suggested by Hu et al. [13] and Ye et al. [14]:
//
//	Ebit = ESbit + ELbit                          (Eq. 1)
//	E(ti->tj) = nhops*ESbit + (nhops-1)*ELbit     (Eq. 2)
//
// where ESbit / ELbit are the energies to move one bit through a switch
// and over an inter-tile link, and nhops is the number of routers on the
// route. The buffering term EBbit is deliberately dropped (register
// buffers), which is what makes the model analytically tractable during
// scheduling.
package energy

import (
	"fmt"
	"math"

	"nocsched/internal/noc"
)

// Model holds the per-bit energy coefficients in nanojoules per bit.
type Model struct {
	// ESbit is the energy to move one bit through one router's switch
	// fabric (5x5 crossbar in the reference platform).
	ESbit float64
	// ELbit is the energy to move one bit over one inter-tile link.
	ELbit float64
}

// DefaultModel returns representative 0.18um-era coefficients in the
// ballpark reported by the switch-fabric power analyses the paper cites
// (Ye et al., DAC'02): a few picojoules per bit through a crossbar and
// over a millimeter-scale inter-tile wire. At this scale communication
// is a meaningful fraction of application energy (as in the paper, where
// EAS visibly reduces both terms), so the scheduler's energy-regret
// decisions trade computation against communication rather than ignoring
// the network.
func DefaultModel() Model {
	return Model{
		ESbit: 2.84e-3, // nJ/bit through one switch (2.84 pJ)
		ELbit: 4.49e-3, // nJ/bit over one link (4.49 pJ)
	}
}

// Validate reports whether the coefficients are usable.
func (m Model) Validate() error {
	if m.ESbit < 0 || m.ELbit < 0 {
		return fmt.Errorf("energy: negative coefficients %+v", m)
	}
	if m.ESbit == 0 && m.ELbit == 0 {
		return fmt.Errorf("energy: all-zero model")
	}
	return nil
}

// BitEnergy returns Eq. (2): the average energy to move one bit across
// nhops routers. It is 0 for nhops <= 0 (intra-tile communication never
// enters the network).
func (m Model) BitEnergy(nhops int) float64 {
	if nhops <= 0 {
		return 0
	}
	return float64(nhops)*m.ESbit + float64(nhops-1)*m.ELbit
}

// ACG is the Architecture Characterization Graph of Definition 2: for
// every ordered PE pair (pi, pj) it stores the route r_ij, its per-bit
// energy e(r_ij) and its bandwidth b(r_ij). Routes are precomputed once
// so the scheduler's inner loop never re-runs the routing function.
type ACG struct {
	platform *noc.Platform
	model    Model

	n      int
	routes [][]noc.LinkID // routes[i*n+j]
	hops   []int          // hops[i*n+j]
	ebit   []float64      // ebit[i*n+j], nJ per bit
}

// BuildACG precomputes the ACG for a platform under an energy model.
// Every PE pair must be routable; use BuildACGPartial for degraded
// platforms with out-of-service tiles.
func BuildACG(p *noc.Platform, m Model) (*ACG, error) {
	return buildACG(p, m, false)
}

// BuildACGPartial precomputes an ACG for a platform whose topology may
// leave some PE pairs unroutable (a fault-degraded platform with dead
// routers). Unroutable pairs get no route, Hops -1 and an infinite
// per-bit energy so any accidental use is glaring; callers must keep
// tasks off the affected PEs (the fault package does this by marking
// them incapable in the degraded CTG) and can test pairs with
// Reachable.
func BuildACGPartial(p *noc.Platform, m Model) (*ACG, error) {
	return buildACG(p, m, true)
}

func buildACG(p *noc.Platform, m Model, partial bool) (*ACG, error) {
	if p == nil {
		return nil, fmt.Errorf("energy: nil platform")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := p.NumPEs()
	a := &ACG{
		platform: p,
		model:    m,
		n:        n,
		routes:   make([][]noc.LinkID, n*n),
		hops:     make([]int, n*n),
		ebit:     make([]float64, n*n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			route, err := p.Topo.Route(noc.TileID(i), noc.TileID(j))
			if err != nil {
				if !partial {
					return nil, fmt.Errorf("energy: ACG route %d->%d: %w", i, j, err)
				}
				a.routes[idx] = nil
				a.hops[idx] = -1
				a.ebit[idx] = math.Inf(1)
				continue
			}
			a.routes[idx] = route
			a.hops[idx] = p.Topo.Hops(noc.TileID(i), noc.TileID(j))
			a.ebit[idx] = m.BitEnergy(a.hops[idx])
		}
	}
	return a, nil
}

// Reachable reports whether PE j can be reached from PE i on the ACG's
// platform. It is true for every pair of a fully-connected ACG and
// false exactly for the unroutable pairs of a partial (degraded) ACG.
func (a *ACG) Reachable(i, j int) bool {
	return i == j || a.hops[i*a.n+j] >= 0
}

// Platform returns the platform the ACG was built for.
func (a *ACG) Platform() *noc.Platform { return a.platform }

// Model returns the energy model the ACG was built with.
func (a *ACG) Model() Model { return a.model }

// NumPEs returns the number of PEs.
func (a *ACG) NumPEs() int { return a.n }

// Route returns r_ij, the precomputed route from PE i to PE j. The
// returned slice aliases ACG storage and must not be mutated.
func (a *ACG) Route(i, j int) []noc.LinkID { return a.routes[i*a.n+j] }

// Hops returns n_hops from PE i to PE j.
func (a *ACG) Hops(i, j int) int { return a.hops[i*a.n+j] }

// BitEnergy returns e(r_ij) in nJ per bit.
func (a *ACG) BitEnergy(i, j int) float64 { return a.ebit[i*a.n+j] }

// CommEnergy returns the energy to ship volume bits from PE i to PE j:
// v(c) * e(r_ij). Zero for intra-tile transfers and control edges.
func (a *ACG) CommEnergy(volume int64, i, j int) float64 {
	if volume <= 0 || i == j {
		return 0
	}
	return float64(volume) * a.ebit[i*a.n+j]
}

// TransferTime returns the network occupancy time of a volume-bit
// transaction from PE i to PE j (zero when i == j or volume == 0).
func (a *ACG) TransferTime(volume int64, i, j int) int64 {
	if i == j {
		return 0
	}
	return a.platform.TransferTime(volume)
}
