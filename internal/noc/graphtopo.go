package noc

import (
	"fmt"
	"sort"
)

// GraphTopology is an arbitrary tile interconnect with deterministic
// shortest-path routing. Routes are precomputed with breadth-first
// search; ties between equal-length paths are broken toward the
// lowest-numbered next-hop tile, so the routing function is a pure
// function of (current, destination) — exactly the class of
// deterministic routing schemes the paper's algorithm supports.
//
// It is the extension point the paper's conclusion calls for: "our
// algorithm can be adapted to other regular architectures with different
// network topologies or different deterministic routing schemes".
type GraphTopology struct {
	name  string
	n     int
	links []Link
	// nextHop[src*n+dst] is the link to take at src toward dst, or -1.
	nextHop []LinkID
	// hops[src*n+dst] is n_hops (routers traversed), or -1 if
	// unreachable.
	hops []int
}

// NewGraphTopology builds a topology from a directed adjacency list:
// adj[i] lists the tiles reachable from tile i over one link. The
// adjacency is used as given (callers wanting bidirectional channels
// list both directions). Every tile must be able to reach every other
// tile, otherwise an error is returned.
func NewGraphTopology(name string, adj [][]TileID) (*GraphTopology, error) {
	n := len(adj)
	if n == 0 {
		return nil, fmt.Errorf("noc: %s: empty topology", name)
	}
	g := &GraphTopology{
		name:    name,
		n:       n,
		nextHop: make([]LinkID, n*n),
		hops:    make([]int, n*n),
	}
	linkAt := make(map[[2]TileID]LinkID)
	for from, outs := range adj {
		// Deterministic link numbering: sorted neighbor order.
		sorted := append([]TileID(nil), outs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, to := range sorted {
			if err := checkTile(to, n, name); err != nil {
				return nil, err
			}
			if TileID(from) == to {
				return nil, fmt.Errorf("noc: %s: self-link on tile %d", name, from)
			}
			key := [2]TileID{TileID(from), to}
			if _, dup := linkAt[key]; dup {
				continue // collapse duplicate adjacency entries
			}
			id := LinkID(len(g.links))
			g.links = append(g.links, Link{ID: id, From: TileID(from), To: to})
			linkAt[key] = id
		}
	}
	// Reverse-BFS from every destination to fill next-hop tables. At
	// each settled tile we know the distance to dst; a tile's next hop
	// is its lowest-numbered neighbor whose distance is one less.
	succ := make([][]TileID, n)
	for _, l := range g.links {
		succ[l.From] = append(succ[l.From], l.To)
	}
	pred := make([][]TileID, n)
	for _, l := range g.links {
		pred[l.To] = append(pred[l.To], l.From)
	}
	dist := make([]int, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := []TileID{TileID(dst)}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range pred[cur] {
				if dist[p] < 0 {
					dist[p] = dist[cur] + 1
					queue = append(queue, p)
				}
			}
		}
		for src := 0; src < n; src++ {
			idx := src*n + dst
			g.nextHop[idx] = -1
			if src == dst {
				g.hops[idx] = 0
				continue
			}
			if dist[src] < 0 {
				g.hops[idx] = -1
				return nil, fmt.Errorf("noc: %s: tile %d cannot reach tile %d", name, src, dst)
			}
			// n_hops counts routers: links on the path + 1.
			g.hops[idx] = dist[src] + 1
			best := TileID(-1)
			for _, nb := range succ[src] {
				if dist[nb] == dist[src]-1 && (best < 0 || nb < best) {
					best = nb
				}
			}
			g.nextHop[idx] = linkAt[[2]TileID{TileID(src), best}]
		}
	}
	return g, nil
}

// Name implements Topology.
func (g *GraphTopology) Name() string { return g.name }

// NumTiles implements Topology.
func (g *GraphTopology) NumTiles() int { return g.n }

// NumLinks implements Topology.
func (g *GraphTopology) NumLinks() int { return len(g.links) }

// Link implements Topology.
func (g *GraphTopology) Link(id LinkID) Link { return g.links[id] }

// Route implements Topology by following the precomputed next-hop table.
func (g *GraphTopology) Route(src, dst TileID) ([]LinkID, error) {
	if err := checkRoute(g, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, nil
	}
	var route []LinkID
	cur := src
	for cur != dst {
		l := g.nextHop[int(cur)*g.n+int(dst)]
		if l < 0 {
			return nil, fmt.Errorf("noc: %s: no route %d->%d", g.name, src, dst)
		}
		route = append(route, l)
		cur = g.links[l].To
	}
	return route, nil
}

// Hops implements Topology.
func (g *GraphTopology) Hops(src, dst TileID) int {
	return g.hops[int(src)*g.n+int(dst)]
}

// NewHoneycomb builds the honeycomb (hexagonal-lattice) topology the
// paper's conclusion names as a candidate extension, in its standard
// brick-wall embedding: tiles form a cols x rows grid; every tile links
// to its east and west neighbors, and to exactly one vertical neighbor —
// upward when (x+y) is even, downward when odd — giving each interior
// tile degree 3. All channels are bidirectional.
func NewHoneycomb(cols, rows int) (*GraphTopology, error) {
	if cols < 2 || rows < 1 {
		return nil, fmt.Errorf("noc: invalid honeycomb dimensions %dx%d", cols, rows)
	}
	n := cols * rows
	adj := make([][]TileID, n)
	at := func(x, y int) TileID { return TileID(y*cols + x) }
	connect := func(a, b TileID) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				connect(at(x, y), at(x+1, y))
			}
			if (x+y)%2 == 0 && y+1 < rows {
				connect(at(x, y), at(x, y+1))
			}
		}
	}
	return NewGraphTopology(fmt.Sprintf("honeycomb%dx%d", cols, rows), adj)
}
