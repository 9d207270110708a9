package noc

import "fmt"

// DegradedTopology is a base topology with a set of permanently failed
// routers and links removed from service. It preserves the base
// numbering — NumTiles, NumLinks, Link and tile IDs are unchanged — so
// schedules, energy tables and the simulator can keep indexing by the
// base IDs; dead links simply never appear in any route.
//
// Routing is deterministic in two layers:
//
//   - pairs whose base route survives intact keep the base route (XY on
//     a mesh), so an unaffected region of the chip schedules exactly as
//     before the fault;
//   - severed pairs fall back to BFS shortest-path routing over the
//     surviving links with the same lowest-numbered-next-hop tie break
//     GraphTopology uses, which is again a pure function of
//     (current, destination).
//
// Pairs involving a dead router are unreachable: Route returns an error
// and Hops returns -1. Pairs of *alive* tiles left mutually unreachable
// by the fault set are recorded and reported by UnreachablePairs; it is
// the caller's job to decide whether a disconnected surviving fabric is
// an error (the fault package treats it as unrecoverable).
type DegradedTopology struct {
	base Topology
	name string

	deadTile []bool // router at tile failed
	deadLink []bool // link failed (directly or via an adjacent dead router)

	// nextHop[src*n+dst] is the fallback next-hop link over surviving
	// links, or -1.
	nextHop []LinkID
	// hops[src*n+dst] is the router count of the route Route returns
	// (base if intact, BFS otherwise), or -1 if unreachable.
	hops []int
	// baseIntact[src*n+dst] records that the base route survived.
	baseIntact []bool

	unreachable [][2]TileID
}

// NewDegradedTopology removes the given routers and links from base.
// A dead router takes its tile out of service entirely: every link
// entering or leaving the tile is dead too. Duplicate IDs are allowed;
// out-of-range IDs are an error. The constructor never fails on a
// disconnecting fault set — inspect UnreachablePairs for that.
func NewDegradedTopology(base Topology, deadRouters []TileID, deadLinks []LinkID) (*DegradedTopology, error) {
	if base == nil {
		return nil, fmt.Errorf("noc: degraded: nil base topology")
	}
	n := base.NumTiles()
	nl := base.NumLinks()
	d := &DegradedTopology{
		base:       base,
		deadTile:   make([]bool, n),
		deadLink:   make([]bool, nl),
		nextHop:    make([]LinkID, n*n),
		hops:       make([]int, n*n),
		baseIntact: make([]bool, n*n),
	}
	for _, t := range deadRouters {
		if err := checkTile(t, n, base.Name()); err != nil {
			return nil, err
		}
		d.deadTile[t] = true
	}
	for _, l := range deadLinks {
		if l < 0 || int(l) >= nl {
			return nil, fmt.Errorf("noc: degraded: %s: link %d out of range [0,%d)", base.Name(), l, nl)
		}
		d.deadLink[l] = true
	}
	for l := 0; l < nl; l++ {
		link := base.Link(LinkID(l))
		if d.deadTile[link.From] || d.deadTile[link.To] {
			d.deadLink[l] = true
		}
	}
	d.name = fmt.Sprintf("%s-degraded", base.Name())

	// Surviving adjacency for the BFS fallback.
	succ := make([][]Link, n)
	pred := make([][]Link, n)
	for l := 0; l < nl; l++ {
		if d.deadLink[l] {
			continue
		}
		link := base.Link(LinkID(l))
		succ[link.From] = append(succ[link.From], link)
		pred[link.To] = append(pred[link.To], link)
	}

	// Reverse BFS from every destination (as in GraphTopology): at each
	// settled tile the next hop toward dst is the lowest-numbered alive
	// neighbor whose distance is one less.
	dist := make([]int, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		if !d.deadTile[dst] {
			dist[dst] = 0
			queue := []TileID{TileID(dst)}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for _, l := range pred[cur] {
					if dist[l.From] < 0 {
						dist[l.From] = dist[cur] + 1
						queue = append(queue, l.From)
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			idx := src*n + dst
			d.nextHop[idx] = -1
			switch {
			case src == dst:
				d.hops[idx] = 0
				continue
			case d.deadTile[src] || d.deadTile[dst] || dist[src] < 0:
				d.hops[idx] = -1
				if !d.deadTile[src] && !d.deadTile[dst] {
					d.unreachable = append(d.unreachable, [2]TileID{TileID(src), TileID(dst)})
				}
				continue
			}
			var best Link
			found := false
			for _, l := range succ[src] {
				if dist[l.To] == dist[src]-1 && (!found || l.To < best.To) {
					best, found = l, true
				}
			}
			d.nextHop[idx] = best.ID
			if d.routeIntact(TileID(src), TileID(dst)) {
				d.baseIntact[idx] = true
				d.hops[idx] = base.Hops(TileID(src), TileID(dst))
			} else {
				d.hops[idx] = dist[src] + 1
			}
		}
	}
	return d, nil
}

// routeIntact reports whether the base route between two alive tiles
// avoids every dead link (dead intermediate routers imply dead links, so
// checking links suffices).
func (d *DegradedTopology) routeIntact(src, dst TileID) bool {
	route, err := d.base.Route(src, dst)
	if err != nil {
		return false
	}
	for _, l := range route {
		if d.deadLink[l] {
			return false
		}
	}
	return true
}

// DeadRouter reports whether the router at tile t failed.
func (d *DegradedTopology) DeadRouter(t TileID) bool { return d.deadTile[t] }

// DeadLink reports whether link l is out of service (failed directly or
// attached to a dead router).
func (d *DegradedTopology) DeadLink(l LinkID) bool { return d.deadLink[l] }

// UnreachablePairs returns the ordered pairs of *alive* tiles with no
// surviving route, i.e. the witnesses that the fault set disconnected
// the surviving fabric. Empty means every alive pair still routes.
func (d *DegradedTopology) UnreachablePairs() [][2]TileID { return d.unreachable }

// Name implements Topology.
func (d *DegradedTopology) Name() string { return d.name }

// NumTiles implements Topology (base numbering is preserved).
func (d *DegradedTopology) NumTiles() int { return d.base.NumTiles() }

// NumLinks implements Topology (dead links keep their IDs; they are
// never routed over).
func (d *DegradedTopology) NumLinks() int { return d.base.NumLinks() }

// Link implements Topology.
func (d *DegradedTopology) Link(id LinkID) Link { return d.base.Link(id) }

// Route implements Topology: the base route when it survived, otherwise
// the BFS shortest path over surviving links. Routes from, to, or
// between dead routers (and disconnected alive pairs) are errors.
func (d *DegradedTopology) Route(src, dst TileID) ([]LinkID, error) {
	n := d.NumTiles()
	if err := checkTile(src, n, d.name); err != nil {
		return nil, err
	}
	if err := checkTile(dst, n, d.name); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, nil
	}
	idx := int(src)*n + int(dst)
	if d.baseIntact[idx] {
		return d.base.Route(src, dst)
	}
	if d.nextHop[idx] < 0 {
		return nil, fmt.Errorf("noc: %s: no surviving route %d->%d", d.name, src, dst)
	}
	var route []LinkID
	cur := src
	for cur != dst {
		l := d.nextHop[int(cur)*n+int(dst)]
		if l < 0 {
			return nil, fmt.Errorf("noc: %s: no surviving route %d->%d", d.name, src, dst)
		}
		route = append(route, l)
		cur = d.Link(l).To
	}
	return route, nil
}

// Hops implements Topology; -1 marks unreachable pairs.
func (d *DegradedTopology) Hops(src, dst TileID) int {
	return d.hops[int(src)*d.NumTiles()+int(dst)]
}
