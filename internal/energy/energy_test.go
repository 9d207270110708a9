package energy

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nocsched/internal/noc"
)

func testModel() Model { return Model{ESbit: 2, ELbit: 3} }

func TestModelValidate(t *testing.T) {
	if err := (Model{ESbit: -1, ELbit: 1}).Validate(); err == nil {
		t.Error("negative ESbit accepted")
	}
	if err := (Model{}).Validate(); err == nil {
		t.Error("zero model accepted")
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
}

func TestBitEnergyEq2(t *testing.T) {
	m := testModel()
	// Eq. (2): nhops*ESbit + (nhops-1)*ELbit.
	cases := []struct {
		hops int
		want float64
	}{
		{0, 0},
		{-1, 0},
		{1, 2},       // one router, no link (degenerate)
		{2, 2*2 + 3}, // adjacent tiles: 2 switches, 1 link
		{4, 4*2 + 3*3},
	}
	for _, c := range cases {
		if got := m.BitEnergy(c.hops); !almostEq(got, c.want) {
			t.Errorf("BitEnergy(%d) = %v, want %v", c.hops, got, c.want)
		}
	}
}

func buildTestACG(t *testing.T) *ACG {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildACG(p, testModel())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildACGValidation(t *testing.T) {
	if _, err := BuildACG(nil, testModel()); err == nil {
		t.Error("nil platform accepted")
	}
	p, _ := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 64)
	if _, err := BuildACG(p, Model{}); err == nil {
		t.Error("invalid model accepted")
	}
}

// consistencyTopologies are the topologies whose flat ACG routes
// TestACGConsistency checks pair by pair against the routing function.
func consistencyTopologies(t *testing.T) []noc.Topology {
	t.Helper()
	var topos []noc.Topology
	for _, side := range []int{2, 3, 4, 8, 16} {
		for _, scheme := range []noc.RoutingScheme{noc.RouteXY, noc.RouteYX} {
			m, err := noc.NewMesh(side, side, scheme)
			if err != nil {
				t.Fatal(err)
			}
			topos = append(topos, m)
		}
	}
	tor, err := noc.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	honey, err := noc.NewHoneycomb(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The bidirectional 9-tile ring of examples/customtopo.
	adj := make([][]noc.TileID, 9)
	for i := range adj {
		adj[i] = []noc.TileID{noc.TileID((i + 1) % 9), noc.TileID((i + 8) % 9)}
	}
	ring, err := noc.NewGraphTopology("ring9", adj)
	if err != nil {
		t.Fatal(err)
	}
	return append(topos, tor, honey, ring)
}

// TestACGConsistency checks, for every ordered PE pair of each
// topology, that the ACG's flat route equals the topology's route and
// ends its capacity with the route, and that hops and bit energy match.
func TestACGConsistency(t *testing.T) {
	m := testModel()
	for _, topo := range consistencyTopologies(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			classes := make([]noc.PEClass, topo.NumTiles())
			for i := range classes {
				classes[i] = noc.ClassRISC
			}
			p, err := noc.NewPlatform(topo, classes, 64)
			if err != nil {
				t.Fatal(err)
			}
			a, err := BuildACG(p, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < a.NumPEs(); i++ {
				for j := 0; j < a.NumPEs(); j++ {
					route := a.Route(i, j)
					hops := a.Hops(i, j)
					if cap(route) != len(route) {
						t.Fatalf("pair (%d,%d): route cap %d, len %d", i, j, cap(route), len(route))
					}
					want, err := topo.Route(noc.TileID(i), noc.TileID(j))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(route, want) {
						t.Fatalf("pair (%d,%d): ACG route %v, topology route %v", i, j, route, want)
					}
					if got := topo.Hops(noc.TileID(i), noc.TileID(j)); got != hops {
						t.Fatalf("pair (%d,%d): ACG hops %d, topology hops %d", i, j, hops, got)
					}
					if i == j {
						if len(route) != 0 || hops != 0 || a.BitEnergy(i, j) != 0 {
							t.Fatalf("self pair (%d) has network cost", i)
						}
						continue
					}
					if len(route)+1 != hops {
						t.Fatalf("pair (%d,%d): route len %d, hops %d", i, j, len(route), hops)
					}
					if want := m.BitEnergy(hops); !almostEq(a.BitEnergy(i, j), want) {
						t.Fatalf("pair (%d,%d): BitEnergy %v, want %v", i, j, a.BitEnergy(i, j), want)
					}
				}
			}
		})
	}
}

// TestBuildACGAllocs pins the allocations of a 4x4 ACG build.
func TestBuildACGAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race")
	}
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildACG(p, DefaultModel()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > buildACG4x4Allocs {
		t.Errorf("4x4 BuildACG allocates %.0f objects, want <= %d", allocs, buildACG4x4Allocs)
	}
}

// buildACG4x4Allocs is the measured allocation count of a 4x4
// BuildACG: the 240 routes the mesh returns, the ACG struct, its three
// per-pair arrays and its flat link storage. Formatting the topology
// name per route, as Route once did on its success path, would add two
// allocations per route.
const buildACG4x4Allocs = 245

// BenchmarkBuildACG times the ACG build of the default 4x4 platform
// and of a 16x16 mesh.
func BenchmarkBuildACG(b *testing.B) {
	for _, side := range []int{4, 16} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			p, err := noc.NewHeterogeneousMesh(side, side, noc.RouteXY, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := BuildACG(p, DefaultModel()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestACGEnergySymmetricOnMesh(t *testing.T) {
	// XY and YX routes differ, but hop counts (and therefore energies)
	// are symmetric on a mesh with minimal routing.
	a := buildTestACG(t)
	for i := 0; i < a.NumPEs(); i++ {
		for j := 0; j < a.NumPEs(); j++ {
			if !almostEq(a.BitEnergy(i, j), a.BitEnergy(j, i)) {
				t.Errorf("asymmetric energy (%d,%d)", i, j)
			}
		}
	}
}

func TestCommEnergyAndTransferTime(t *testing.T) {
	a := buildTestACG(t)
	if a.CommEnergy(1000, 3, 3) != 0 {
		t.Error("intra-tile communication costs energy")
	}
	if a.CommEnergy(0, 0, 5) != 0 {
		t.Error("control edge costs energy")
	}
	if a.CommEnergy(-10, 0, 5) != 0 {
		t.Error("negative volume costs energy")
	}
	// Adjacent pair (0,1): 2 hops -> bit energy 2*2+3 = 7.
	if got := a.CommEnergy(10, 0, 1); !almostEq(got, 70) {
		t.Errorf("CommEnergy = %v, want 70", got)
	}
	if got := a.TransferTime(100, 2, 2); got != 0 {
		t.Errorf("intra-tile transfer time = %d", got)
	}
	if got := a.TransferTime(100, 0, 1); got != 2 { // ceil(100/64)
		t.Errorf("transfer time = %d, want 2", got)
	}
}

// Property: bit energy is monotone in hop count and strictly positive
// for any inter-tile pair.
func TestQuickBitEnergyMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(h8 uint8) bool {
		h := int(h8%62) + 1
		return m.BitEnergy(h+1) > m.BitEnergy(h) && m.BitEnergy(h) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}
