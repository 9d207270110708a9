package ctg

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format: tasks as nodes
// (deadline tasks doubled-outlined, annotated with their deadline),
// arcs labeled with volumes. Intended for documentation and debugging.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	for i := range g.tasks {
		t := &g.tasks[i]
		label := t.Name
		attrs := ""
		if t.HasDeadline() {
			label = fmt.Sprintf("%s\\nd=%d", t.Name, t.Deadline)
			attrs = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\"%s];\n", t.ID, label, attrs)
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.Volume > 0 {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%d\"];\n", e.Src, e.Dst, e.Volume)
		} else {
			fmt.Fprintf(&b, "  t%d -> t%d [style=dashed];\n", e.Src, e.Dst)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Ancestors returns the set of tasks from which t is reachable
// (excluding t itself), in ascending ID order.
func (g *Graph) Ancestors(t TaskID) []TaskID {
	seen := make(map[TaskID]bool)
	stack := []TaskID{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Pred(cur) {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	out := make([]TaskID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Descendants returns the set of tasks reachable from t (excluding t
// itself), in ascending ID order.
func (g *Graph) Descendants(t TaskID) []TaskID {
	seen := make(map[TaskID]bool)
	stack := []TaskID{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succ(cur) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]TaskID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
