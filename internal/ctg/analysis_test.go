package ctg

import (
	"bytes"
	"strings"
	"testing"
)

func analysisGraph(t *testing.T) (*Graph, [5]TaskID) {
	t.Helper()
	// a(10) -> b(30) -> d(20)
	//   \-> c(5) ---/     \-> e(1, d=100)
	g := New("an")
	var ids [5]TaskID
	for i, spec := range []struct {
		name string
		exec int64
		dl   int64
	}{
		{"a", 10, NoDeadline},
		{"b", 30, NoDeadline},
		{"c", 5, NoDeadline},
		{"d", 20, NoDeadline},
		{"e", 1, 100},
	} {
		id, err := g.AddTask(spec.name, []int64{spec.exec}, []float64{1}, spec.dl)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, e := range [][3]int64{{0, 1, 100}, {0, 2, 0}, {1, 3, 50}, {2, 3, 10}, {3, 4, 0}} {
		if _, err := g.AddEdge(ids[e[0]], ids[e[1]], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestWriteDOT(t *testing.T) {
	g, _ := analysisGraph(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph", "t0 ->", "label=\"100\"", "style=dashed",
		"d=100", "peripheries=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g, ids := analysisGraph(t)
	anc := g.Ancestors(ids[3]) // d: a, b, c
	if len(anc) != 3 {
		t.Errorf("Ancestors(d) = %v", anc)
	}
	if got := g.Ancestors(ids[0]); len(got) != 0 {
		t.Errorf("Ancestors(source) = %v", got)
	}
	desc := g.Descendants(ids[0]) // a: everyone else
	if len(desc) != 4 {
		t.Errorf("Descendants(a) = %v", desc)
	}
	if got := g.Descendants(ids[4]); len(got) != 0 {
		t.Errorf("Descendants(sink) = %v", got)
	}
}
