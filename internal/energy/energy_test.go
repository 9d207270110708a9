package energy

import (
	"math"
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

func TestACGConsistency(t *testing.T) {
	a := buildTestACG(t)
	m := testModel()
	topo := a.Platform().Topo
	for i := 0; i < a.NumPEs(); i++ {
		for j := 0; j < a.NumPEs(); j++ {
			route := a.Route(i, j)
			hops := a.Hops(i, j)
			if i == j {
				if len(route) != 0 || hops != 0 || a.BitEnergy(i, j) != 0 {
					t.Fatalf("self pair (%d) has network cost", i)
				}
				continue
			}
			if len(route)+1 != hops {
				t.Errorf("pair (%d,%d): route len %d, hops %d", i, j, len(route), hops)
			}
			if want := m.BitEnergy(hops); !almostEq(a.BitEnergy(i, j), want) {
				t.Errorf("pair (%d,%d): BitEnergy %v, want %v", i, j, a.BitEnergy(i, j), want)
			}
			if got := topo.Hops(noc.TileID(i), noc.TileID(j)); got != hops {
				t.Errorf("pair (%d,%d): ACG hops %d, topology hops %d", i, j, hops, got)
			}
		}
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
