package noc

import (
	"strings"
	"testing"
	"testing/quick"
)

// mustMesh builds a mesh, failing the test on a geometry error.
func mustMesh(t *testing.T, width, height int, scheme RoutingScheme) *Mesh {
	t.Helper()
	m, err := NewMesh(width, height, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(0, 4, RouteXY); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewMesh(4, -1, RouteXY); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := NewMesh(2, 2, RoutingScheme(42)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestParseMesh(t *testing.T) {
	for _, c := range []struct {
		spec string
		w, h int
		ok   bool
	}{
		{"4x4", 4, 4, true},
		{"1x8", 1, 8, true},
		{"12x3", 12, 3, true},
		{"3x3junk", 0, 0, false},
		{"4x4x4", 0, 0, false},
		{"4x", 0, 0, false},
		{"x4", 0, 0, false},
		{"0x4", 0, 0, false},
		{"-1x4", 0, 0, false},
		{"4x0", 0, 0, false},
		{"4by4", 0, 0, false},
		{" 4x4", 0, 0, false},
		{"", 0, 0, false},
	} {
		w, h, err := ParseMesh(c.spec)
		if (err == nil) != c.ok || w != c.w || h != c.h {
			t.Errorf("ParseMesh(%q) = %d, %d, %v; want %d, %d, ok=%v", c.spec, w, h, err, c.w, c.h, c.ok)
		}
	}
}

func TestMeshStructure(t *testing.T) {
	m := mustMesh(t, 4, 3, RouteXY)
	if m.NumTiles() != 12 {
		t.Errorf("NumTiles = %d", m.NumTiles())
	}
	// Directed links: horizontal 2*(w-1)*h = 18, vertical 2*w*(h-1) = 16.
	if m.NumLinks() != 34 {
		t.Errorf("NumLinks = %d, want 34", m.NumLinks())
	}
	// Coordinate round trip.
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			id := m.TileAt(x, y)
			gx, gy := m.Coords(id)
			if gx != x || gy != y {
				t.Errorf("Coords(TileAt(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	// Every link connects Manhattan-adjacent tiles.
	for i := 0; i < m.NumLinks(); i++ {
		l := m.Link(LinkID(i))
		fx, fy := m.Coords(l.From)
		tx, ty := m.Coords(l.To)
		if abs(fx-tx)+abs(fy-ty) != 1 {
			t.Errorf("link %d connects non-adjacent tiles %v->%v", i, l.From, l.To)
		}
	}
}

func TestXYRouteShape(t *testing.T) {
	m := mustMesh(t, 4, 4, RouteXY)
	// From (0,0) to (2,3): XY goes east twice, then north three times.
	route, err := m.Route(m.TileAt(0, 0), m.TileAt(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 5 {
		t.Fatalf("route length %d, want 5", len(route))
	}
	// The first two hops must change x only.
	for i, lid := range route {
		l := m.Link(lid)
		fx, fy := m.Coords(l.From)
		tx, ty := m.Coords(l.To)
		if i < 2 {
			if fy != ty || tx != fx+1 {
				t.Errorf("hop %d not an eastward X move: (%d,%d)->(%d,%d)", i, fx, fy, tx, ty)
			}
		} else {
			if fx != tx || ty != fy+1 {
				t.Errorf("hop %d not a northward Y move: (%d,%d)->(%d,%d)", i, fx, fy, tx, ty)
			}
		}
	}
}

func TestYXRouteShape(t *testing.T) {
	m := mustMesh(t, 4, 4, RouteYX)
	route, err := m.Route(m.TileAt(0, 0), m.TileAt(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 5 {
		t.Fatalf("route length %d, want 5", len(route))
	}
	l := m.Link(route[0])
	fx, fy := m.Coords(l.From)
	tx, ty := m.Coords(l.To)
	if fx != tx || ty != fy+1 {
		t.Errorf("YX routing must move in Y first: (%d,%d)->(%d,%d)", fx, fy, tx, ty)
	}
}

func TestRouteSelfAndErrors(t *testing.T) {
	m := mustMesh(t, 2, 2, RouteXY)
	r, err := m.Route(1, 1)
	if err != nil || len(r) != 0 {
		t.Errorf("self route = %v, %v", r, err)
	}
	// The topology name is formatted only on the error path; the
	// error must still carry it.
	for _, c := range [][2]TileID{{-1, 0}, {0, 99}, {4, 4}} {
		_, err := m.Route(c[0], c[1])
		if err == nil {
			t.Errorf("Route(%d, %d) accepted", c[0], c[1])
		} else if !strings.Contains(err.Error(), "mesh2x2-xy") {
			t.Errorf("Route(%d, %d) error %q does not name the topology", c[0], c[1], err)
		}
	}
	if m.Hops(2, 2) != 0 {
		t.Error("Hops(self) != 0")
	}
}

func TestHopsIsManhattanPlusOne(t *testing.T) {
	m := mustMesh(t, 4, 4, RouteXY)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			sx, sy := m.Coords(TileID(s))
			dx, dy := m.Coords(TileID(d))
			want := abs(dx-sx) + abs(dy-sy) + 1
			if got := m.Hops(TileID(s), TileID(d)); got != want {
				t.Errorf("Hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

// Property: for random mesh sizes and tile pairs, the XY route is
// contiguous (each link starts where the previous ended), starts at src,
// ends at dst, and has length Hops-1.
func TestQuickRouteContiguity(t *testing.T) {
	f := func(w8, h8, s16, d16 uint8, yx bool) bool {
		w := int(w8%6) + 1
		h := int(h8%6) + 1
		scheme := RouteXY
		if yx {
			scheme = RouteYX
		}
		m := mustMesh(t, w, h, scheme)
		src := TileID(int(s16) % m.NumTiles())
		dst := TileID(int(d16) % m.NumTiles())
		route, err := m.Route(src, dst)
		if err != nil {
			return false
		}
		if src == dst {
			return len(route) == 0
		}
		if len(route) != m.Hops(src, dst)-1 {
			return false
		}
		cur := src
		for _, lid := range route {
			l := m.Link(lid)
			if l.From != cur {
				return false
			}
			cur = l.To
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteIntersects(t *testing.T) {
	if RouteIntersects(nil, []LinkID{1}) {
		t.Error("empty route intersects")
	}
	if !RouteIntersects([]LinkID{1, 2, 3}, []LinkID{5, 3}) {
		t.Error("shared link 3 not detected")
	}
	if RouteIntersects([]LinkID{1, 2}, []LinkID{3, 4}) {
		t.Error("disjoint routes reported intersecting")
	}
}
