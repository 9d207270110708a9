// Package noc models the target Network-on-Chip architecture of the
// paper: a set of tiles, each holding one processing element (PE) and one
// router, interconnected by directed links, with a deterministic routing
// function. The reference platform is the n x n 2-D mesh with XY routing
// (Sec. 3.1); the honeycomb topology sketched as future work in the
// paper's conclusion is provided as well, as is YX routing, to exercise
// the "other deterministic routing schemes" extension point.
package noc

import "fmt"

// TileID identifies a tile (and therefore its PE and router). IDs are
// dense in [0, NumTiles).
type TileID int

// LinkID identifies a directed inter-tile link. IDs are dense in
// [0, NumLinks).
type LinkID int

// Link is a directed physical channel between the routers of two
// adjacent tiles.
type Link struct {
	ID   LinkID
	From TileID
	To   TileID
}

// Topology describes the tile interconnect and its deterministic routing
// function. Implementations must be immutable after construction and safe
// for concurrent readers.
type Topology interface {
	// Name identifies the topology (for reports), e.g. "mesh4x4-xy".
	Name() string

	// NumTiles returns the number of tiles.
	NumTiles() int

	// NumLinks returns the number of directed links.
	NumLinks() int

	// Link returns the directed link with the given ID.
	Link(LinkID) Link

	// Route returns the ordered sequence of link IDs a packet from src
	// to dst traverses under the topology's deterministic routing
	// function. The route is empty when src == dst (intra-tile
	// communication never enters the network).
	Route(src, dst TileID) ([]LinkID, error)

	// Hops returns n_hops of the paper's Eq. (2): the number of
	// routers a bit passes on its way from src to dst. For a minimal
	// route it equals len(Route(src,dst))+1; it is 0 when src == dst.
	Hops(src, dst TileID) int
}

// checkTile validates a tile ID against a tile count.
func checkTile(id TileID, n int, topo string) error {
	if id < 0 || int(id) >= n {
		return fmt.Errorf("noc: %s: tile %d out of range [0,%d)", topo, id, n)
	}
	return nil
}

// checkRoute validates both tiles of a route on t. It asks for t's
// name only on the error path: Name may format a string, and valid
// routes are the hot path of every ACG build.
func checkRoute(t Topology, src, dst TileID) error {
	n := t.NumTiles()
	for _, id := range [2]TileID{src, dst} {
		if id < 0 || int(id) >= n {
			return checkTile(id, n, t.Name())
		}
	}
	return nil
}

// RouteIntersects reports whether two routes (ordered link-ID slices)
// share at least one directed link. It implements the "routing paths
// intersect" half of the paper's Definition 3 (transaction compatibility).
func RouteIntersects(a, b []LinkID) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	set := make(map[LinkID]struct{}, len(a))
	for _, l := range a {
		set[l] = struct{}{}
	}
	for _, l := range b {
		if _, ok := set[l]; ok {
			return true
		}
	}
	return false
}
