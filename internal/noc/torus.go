package noc

import "fmt"

// Torus is a width x height 2-D torus: a mesh with wrap-around channels
// in both dimensions. Routing is dimension-ordered (X first, then Y)
// and minimal: each dimension travels around the shorter arc of its
// ring, breaking exact ties toward the positive direction, so the
// routing function stays a pure deterministic function of (src, dst) —
// the class of schemes the paper's scheduler supports.
type Torus struct {
	width, height int
	links         []Link
	linkIndex     map[[2]TileID]LinkID
}

// NewTorus builds a width x height torus. Dimensions must be at least 3
// for the wrap links to be distinct from the mesh links.
func NewTorus(width, height int) (*Torus, error) {
	if width < 3 || height < 3 {
		return nil, fmt.Errorf("noc: torus dimensions %dx%d too small (need >= 3x3)", width, height)
	}
	t := &Torus{
		width:     width,
		height:    height,
		linkIndex: make(map[[2]TileID]LinkID),
	}
	addLink := func(from, to TileID) {
		id := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: id, From: from, To: to})
		t.linkIndex[[2]TileID{from, to}] = id
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			from := t.TileAt(x, y)
			east := t.TileAt((x+1)%width, y)
			north := t.TileAt(x, (y+1)%height)
			addLink(from, east)
			addLink(east, from)
			addLink(from, north)
			addLink(north, from)
		}
	}
	return t, nil
}

// Name implements Topology.
func (t *Torus) Name() string { return fmt.Sprintf("torus%dx%d-xy", t.width, t.height) }

// NumTiles implements Topology.
func (t *Torus) NumTiles() int { return t.width * t.height }

// NumLinks implements Topology.
func (t *Torus) NumLinks() int { return len(t.links) }

// Link implements Topology.
func (t *Torus) Link(id LinkID) Link { return t.links[id] }

// TileAt returns the tile at column x, row y.
func (t *Torus) TileAt(x, y int) TileID { return TileID(y*t.width + x) }

// Coords returns the coordinates of a tile.
func (t *Torus) Coords(id TileID) (x, y int) {
	return int(id) % t.width, int(id) / t.width
}

// ringStep returns the per-move delta (+1 or -1) and the number of
// steps for traveling from a to b on a ring of size n along the shorter
// arc (ties toward +1).
func ringStep(a, b, n int) (delta, steps int) {
	fwd := (b - a + n) % n
	bwd := (a - b + n) % n
	if fwd <= bwd {
		return 1, fwd
	}
	return -1, bwd
}

// Route implements Topology.
func (t *Torus) Route(src, dst TileID) ([]LinkID, error) {
	if err := checkRoute(t, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, nil
	}
	sx, sy := t.Coords(src)
	dx, dy := t.Coords(dst)
	var route []LinkID
	x, y := sx, sy
	step := func(nx, ny int) error {
		id, ok := t.linkIndex[[2]TileID{t.TileAt(x, y), t.TileAt(nx, ny)}]
		if !ok {
			return fmt.Errorf("noc: %s: missing link (%d,%d)->(%d,%d)", t.Name(), x, y, nx, ny)
		}
		route = append(route, id)
		x, y = nx, ny
		return nil
	}
	if deltaX, steps := ringStep(sx, dx, t.width); steps > 0 {
		for i := 0; i < steps; i++ {
			if err := step((x+deltaX+t.width)%t.width, y); err != nil {
				return nil, err
			}
		}
	}
	if deltaY, steps := ringStep(sy, dy, t.height); steps > 0 {
		for i := 0; i < steps; i++ {
			if err := step(x, (y+deltaY+t.height)%t.height); err != nil {
				return nil, err
			}
		}
	}
	return route, nil
}

// Hops implements Topology: the torus distance (sum of the two ring
// distances) plus one, or 0 for src == dst.
func (t *Torus) Hops(src, dst TileID) int {
	if src == dst {
		return 0
	}
	sx, sy := t.Coords(src)
	dx, dy := t.Coords(dst)
	_, xs := ringStep(sx, dx, t.width)
	_, ys := ringStep(sy, dy, t.height)
	return xs + ys + 1
}
