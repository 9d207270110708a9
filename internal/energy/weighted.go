package energy

import (
	"fmt"

	"nocsched/internal/noc"
)

// BuildACGWeighted builds an ACG whose per-pair bit energy is summed
// along the actual route with per-link length factors:
//
//	e(r_ij) = (len(route)+1) * ESbit + sum over links l of scale[l] * ELbit
//
// This implements the paper's conclusion remark that on irregular
// layouts (e.g. the honeycomb of [3]) "we can still use Eq. (2) to
// calculate the E_bit metric for each sending and receiving PE pair,
// although this metric may no longer be determined by the Manhattan
// distance between them": links of different physical length carry
// different ELbit, so the route's energy follows its geometry rather
// than a pure hop count.
//
// scale must have one entry per topology link; 1.0 reproduces BuildACG
// exactly. Non-positive entries are rejected.
func BuildACGWeighted(p *noc.Platform, m Model, scale []float64) (*ACG, error) {
	if p != nil && len(scale) != p.Topo.NumLinks() {
		return nil, fmt.Errorf("energy: %d link scales for %d links", len(scale), p.Topo.NumLinks())
	}
	for l, s := range scale {
		if s <= 0 {
			return nil, fmt.Errorf("energy: non-positive scale %g for link %d", s, l)
		}
	}
	return buildACG(p, m, func(route []noc.LinkID, _ int) float64 {
		e := float64(len(route)+1) * m.ESbit
		for _, l := range route {
			e += scale[l] * m.ELbit
		}
		return e
	})
}

// UniformLinkScale returns an all-ones scale slice for a topology,
// convenient as a starting point for custom geometries.
func UniformLinkScale(topo noc.Topology) []float64 {
	scale := make([]float64, topo.NumLinks())
	for i := range scale {
		scale[i] = 1
	}
	return scale
}
