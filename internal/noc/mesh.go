package noc

import (
	"fmt"
	"strconv"
	"strings"
)

// RoutingScheme selects one of the deterministic dimension-ordered
// routing functions supported by Mesh.
type RoutingScheme int

const (
	// RouteXY routes packets fully along the X dimension first, then
	// along Y. This is the scheme the paper uses ("for the sake of
	// simplicity, the XY routing scheme is used").
	RouteXY RoutingScheme = iota
	// RouteYX routes along Y first, then X. Deadlock-free like XY and
	// useful for ablating the routing-scheme sensitivity of the
	// scheduler.
	RouteYX
)

// String returns "xy" or "yx".
func (s RoutingScheme) String() string {
	switch s {
	case RouteXY:
		return "xy"
	case RouteYX:
		return "yx"
	default:
		return fmt.Sprintf("routing(%d)", int(s))
	}
}

// Mesh is a Width x Height 2-D mesh of tiles with minimal
// dimension-ordered routing. Tile (x, y) has ID y*Width + x; x grows
// eastward, y grows northward, matching the paper's Fig. 1 coordinates
// (row, column) = (y, x).
type Mesh struct {
	width, height int
	scheme        RoutingScheme

	links []Link
	// linkAt[from][to] for adjacent pairs; -1 otherwise.
	linkIndex map[[2]TileID]LinkID
}

// ParseMesh parses a "WIDTHxHEIGHT" mesh spec such as "4x4". Both
// parts must be positive decimal integers and nothing may follow the
// height.
func ParseMesh(spec string) (width, height int, err error) {
	ws, hs, ok := strings.Cut(spec, "x")
	if ok {
		width, err = strconv.Atoi(ws)
		if err == nil {
			height, err = strconv.Atoi(hs)
		}
	}
	if !ok || err != nil || width < 1 || height < 1 {
		return 0, 0, fmt.Errorf("noc: bad mesh %q (want WIDTHxHEIGHT, both positive)", spec)
	}
	return width, height, nil
}

// NewMesh builds a width x height mesh with the given routing scheme.
func NewMesh(width, height int, scheme RoutingScheme) (*Mesh, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("noc: invalid mesh dimensions %dx%d", width, height)
	}
	if scheme != RouteXY && scheme != RouteYX {
		return nil, fmt.Errorf("noc: unknown routing scheme %v", scheme)
	}
	m := &Mesh{
		width:     width,
		height:    height,
		scheme:    scheme,
		linkIndex: make(map[[2]TileID]LinkID),
	}
	addLink := func(from, to TileID) {
		id := LinkID(len(m.links))
		m.links = append(m.links, Link{ID: id, From: from, To: to})
		m.linkIndex[[2]TileID{from, to}] = id
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			from := m.TileAt(x, y)
			if x+1 < width {
				addLink(from, m.TileAt(x+1, y))
				addLink(m.TileAt(x+1, y), from)
			}
			if y+1 < height {
				addLink(from, m.TileAt(x, y+1))
				addLink(m.TileAt(x, y+1), from)
			}
		}
	}
	return m, nil
}

// Name implements Topology.
func (m *Mesh) Name() string {
	return fmt.Sprintf("mesh%dx%d-%s", m.width, m.height, m.scheme)
}

// NumTiles implements Topology.
func (m *Mesh) NumTiles() int { return m.width * m.height }

// NumLinks implements Topology.
func (m *Mesh) NumLinks() int { return len(m.links) }

// Link implements Topology.
func (m *Mesh) Link(id LinkID) Link { return m.links[id] }

// TileAt returns the ID of the tile at column x, row y.
func (m *Mesh) TileAt(x, y int) TileID { return TileID(y*m.width + x) }

// Coords returns the (x, y) coordinates of tile id.
func (m *Mesh) Coords(id TileID) (x, y int) {
	return int(id) % m.width, int(id) / m.width
}

// LinkBetween returns the directed link from one tile to an adjacent
// tile, or an error if the tiles are not neighbors.
func (m *Mesh) LinkBetween(from, to TileID) (LinkID, error) {
	if id, ok := m.linkIndex[[2]TileID{from, to}]; ok {
		return id, nil
	}
	return -1, fmt.Errorf("noc: %s: no link %d->%d", m.Name(), from, to)
}

// Route implements Topology using minimal dimension-ordered routing.
func (m *Mesh) Route(src, dst TileID) ([]LinkID, error) {
	if err := checkRoute(m, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, nil
	}
	sx, sy := m.Coords(src)
	dx, dy := m.Coords(dst)
	route := make([]LinkID, 0, abs(dx-sx)+abs(dy-sy))
	x, y := sx, sy
	stepX := func() error {
		for x != dx {
			nx := x + sign(dx-x)
			id, err := m.LinkBetween(m.TileAt(x, y), m.TileAt(nx, y))
			if err != nil {
				return err
			}
			route = append(route, id)
			x = nx
		}
		return nil
	}
	stepY := func() error {
		for y != dy {
			ny := y + sign(dy-y)
			id, err := m.LinkBetween(m.TileAt(x, y), m.TileAt(x, ny))
			if err != nil {
				return err
			}
			route = append(route, id)
			y = ny
		}
		return nil
	}
	var err error
	if m.scheme == RouteXY {
		if err = stepX(); err == nil {
			err = stepY()
		}
	} else {
		if err = stepY(); err == nil {
			err = stepX()
		}
	}
	if err != nil {
		return nil, err
	}
	return route, nil
}

// Hops implements Topology: the Manhattan distance plus one (source and
// destination routers are both traversed), or 0 for src == dst.
func (m *Mesh) Hops(src, dst TileID) int {
	if src == dst {
		return 0
	}
	sx, sy := m.Coords(src)
	dx, dy := m.Coords(dst)
	return abs(dx-sx) + abs(dy-sy) + 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
