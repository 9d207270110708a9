package ctg

import "fmt"

// CrossDep declares a dependency from one iteration of a periodic
// application to the next: task From of iteration i must finish (and
// ship Volume bits) before task To of iteration i+1 starts. The
// canonical example is a video encoder's reconstructed reference frame
// feeding the next frame's motion estimation.
type CrossDep struct {
	From   TaskID
	To     TaskID
	Volume int64
}

// Unroll builds the CTG of n successive iterations of the periodic
// application g: tasks and intra-iteration arcs are replicated n times,
// every specified deadline of iteration i is offset by i*period, and
// the cross-iteration dependencies are wired between consecutive
// copies. Scheduling the unrolled graph lets the static scheduler
// overlap iterations across PEs (software pipelining), which a
// one-iteration schedule cannot express.
//
// Task j of iteration i has ID i*g.NumTasks()+j and name
// "<name>#<i>".
func Unroll(g *Graph, n int, period int64, cross []CrossDep) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("ctg: unroll count %d < 1", n)
	}
	if period < 0 {
		return nil, fmt.Errorf("ctg: negative period %d", period)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, c := range cross {
		if int(c.From) >= g.NumTasks() || c.From < 0 || int(c.To) >= g.NumTasks() || c.To < 0 {
			return nil, fmt.Errorf("ctg: cross dependency %d->%d references unknown task", c.From, c.To)
		}
		if c.Volume < 0 {
			return nil, fmt.Errorf("ctg: cross dependency %d->%d has negative volume", c.From, c.To)
		}
	}

	out := New(fmt.Sprintf("%s-x%d", g.Name, n))
	base := g.NumTasks()
	for i := 0; i < n; i++ {
		offset := int64(i) * period
		for j := 0; j < base; j++ {
			t := g.Task(TaskID(j))
			deadline := t.Deadline
			if t.HasDeadline() {
				deadline = t.Deadline + offset
			}
			if _, err := out.AddTask(fmt.Sprintf("%s#%d", t.Name, i), t.ExecTime, t.Energy, deadline); err != nil {
				return nil, err
			}
		}
		for _, e := range g.Edges() {
			src := TaskID(i*base) + e.Src
			dst := TaskID(i*base) + e.Dst
			if _, err := out.AddEdge(src, dst, e.Volume); err != nil {
				return nil, err
			}
		}
		if i > 0 {
			for _, c := range cross {
				src := TaskID((i-1)*base) + c.From
				dst := TaskID(i*base) + c.To
				if _, err := out.AddEdge(src, dst, c.Volume); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}
