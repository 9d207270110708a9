package noc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewTorusValidation(t *testing.T) {
	if _, err := NewTorus(2, 3); err == nil {
		t.Error("degenerate torus accepted")
	}
	if _, err := NewTorus(3, 2); err == nil {
		t.Error("degenerate torus accepted")
	}
}

func TestTorusStructure(t *testing.T) {
	tor, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tor.NumTiles() != 16 {
		t.Errorf("NumTiles = %d", tor.NumTiles())
	}
	// Every tile has 4 outgoing links (E, W, N, S with wrap): 64 total.
	if tor.NumLinks() != 64 {
		t.Errorf("NumLinks = %d, want 64", tor.NumLinks())
	}
	// Out-of-range tiles are rejected by an error naming the torus.
	for _, c := range [][2]TileID{{-1, 0}, {0, 16}} {
		_, err := tor.Route(c[0], c[1])
		if err == nil {
			t.Errorf("Route(%d, %d) accepted", c[0], c[1])
		} else if !strings.Contains(err.Error(), "torus4x4-xy") {
			t.Errorf("Route(%d, %d) error %q does not name the topology", c[0], c[1], err)
		}
	}
}

func TestTorusWrapAroundShortens(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	// (0,0) to (3,0): 1 hop west via wrap, not 3 east.
	route, err := tor.Route(tor.TileAt(0, 0), tor.TileAt(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 1 {
		t.Errorf("wrap route length %d, want 1", len(route))
	}
	if tor.Hops(tor.TileAt(0, 0), tor.TileAt(3, 0)) != 2 {
		t.Errorf("wrap hops = %d, want 2", tor.Hops(0, 3))
	}
	// Maximum distance on a 4x4 torus is 2+2.
	if got := tor.Hops(tor.TileAt(0, 0), tor.TileAt(2, 2)); got != 5 {
		t.Errorf("diagonal hops = %d, want 5", got)
	}
}

func TestTorusTieBreakDeterministic(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	// Distance 2 both ways around: ties go positive. (0,0)->(2,0)
	// must route east.
	route, err := tor.Route(tor.TileAt(0, 0), tor.TileAt(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	first := tor.Link(route[0])
	if first.To != tor.TileAt(1, 0) {
		t.Errorf("tie-break direction: first hop to tile %d", first.To)
	}
}

// Property: torus routes are contiguous, minimal (length == Hops-1) and
// XY-ordered (all X moves precede all Y moves).
func TestQuickTorusRoutes(t *testing.T) {
	f := func(w8, h8, s8, d8 uint8) bool {
		w := int(w8%4) + 3
		h := int(h8%4) + 3
		tor, err := NewTorus(w, h)
		if err != nil {
			return false
		}
		src := TileID(int(s8) % tor.NumTiles())
		dst := TileID(int(d8) % tor.NumTiles())
		route, err := tor.Route(src, dst)
		if err != nil {
			return false
		}
		if src == dst {
			return len(route) == 0
		}
		if len(route) != tor.Hops(src, dst)-1 {
			return false
		}
		cur := src
		seenY := false
		for _, lid := range route {
			l := tor.Link(lid)
			if l.From != cur {
				return false
			}
			fx, _ := tor.Coords(l.From)
			tx, _ := tor.Coords(l.To)
			if fx == tx {
				seenY = true
			} else if seenY {
				return false // X move after a Y move violates XY order
			}
			cur = l.To
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusAsPlatform(t *testing.T) {
	tor, _ := NewTorus(3, 3)
	classes := make([]PEClass, tor.NumTiles())
	for i := range classes {
		classes[i] = StandardClasses[i%len(StandardClasses)]
	}
	if _, err := NewPlatform(tor, classes, 128); err != nil {
		t.Fatal(err)
	}
}
