package eas

import (
	"testing"

	"nocsched/internal/ctg"
)

// TestCommAwareBudgetTightens: charging communication time to the slack
// paths must shrink (or preserve) every budgeted deadline relative to
// the execution-only budget.
func TestCommAwareBudgetTightens(t *testing.T) {
	g := ctg.New("comm")
	a := addWeighted(t, g, "a", 100, 1, ctg.NoDeadline)
	b := addWeighted(t, g, "b", 100, 1, 1000)
	// Heavy edge: 25600 bits at bandwidth 256 = 100 extra time units.
	if _, err := g.AddEdge(a, b, 25600); err != nil {
		t.Fatal(err)
	}

	plain, err := ComputeBudget(g, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := ComputeBudget(g, nil, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if aware.BD[a] >= plain.BD[a] {
		t.Errorf("comm-aware BD[a] = %d, plain %d: not tighter", aware.BD[a], plain.BD[a])
	}
	// Equal weights: plain path 200, slack 800, a's share 400 -> 500.
	if plain.BD[a] != 500 {
		t.Errorf("plain BD[a] = %d, want 500", plain.BD[a])
	}
	// Comm-aware: path 300, slack 700, a's share 350 -> 450.
	if aware.BD[a] != 450 {
		t.Errorf("aware BD[a] = %d, want 450", aware.BD[a])
	}
	// The deadline task itself keeps its deadline either way.
	if plain.BD[b] != 1000 || aware.BD[b] != 1000 {
		t.Errorf("BD[b]: plain %d aware %d", plain.BD[b], aware.BD[b])
	}
}

// TestScaleZeroRemovesSlack: scale 0 pins every BD to the forward path
// length.
func TestScaleZeroRemovesSlack(t *testing.T) {
	g := ctg.New("scale0")
	a := addWeighted(t, g, "a", 100, 1, ctg.NoDeadline)
	b := addWeighted(t, g, "b", 100, 1, 1000)
	g.AddEdge(a, b, 0)
	budget, err := ComputeBudget(g, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if budget.BD[a] != 100 || budget.BD[b] != 200 {
		t.Errorf("BDs = %d, %d; want forward path lengths 100, 200",
			budget.BD[a], budget.BD[b])
	}
}

// TestScaleValidation rejects out-of-range scales.
func TestScaleValidation(t *testing.T) {
	g := ctg.New("v")
	addWeighted(t, g, "a", 100, 1, 500)
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := ComputeBudget(g, nil, bad, 0); err == nil {
			t.Errorf("scale %v accepted", bad)
		}
	}
}

// TestControlEdgesAddNoCommTime: zero-volume arcs contribute no
// communication time to the comm-aware budget.
func TestControlEdgesAddNoCommTime(t *testing.T) {
	g := ctg.New("ctrl")
	a := addWeighted(t, g, "a", 100, 1, ctg.NoDeadline)
	b := addWeighted(t, g, "b", 100, 1, 1000)
	g.AddEdge(a, b, 0)
	plain, _ := ComputeBudget(g, nil, 1, 0)
	aware, err := ComputeBudget(g, nil, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BD[a] != aware.BD[a] {
		t.Errorf("control edge changed the budget: %d vs %d", plain.BD[a], aware.BD[a])
	}
}
