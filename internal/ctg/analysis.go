package ctg

import (
	"fmt"
	"io"
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
