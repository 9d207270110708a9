package eas

import (
	"nocsched/internal/ctg"
	"nocsched/internal/sched"
)

// retimer times the candidates of one Step 3 search. The search applies
// each move to the incumbent layout in place, retimes it, and then
// either accepts the candidate or undoes the move. evaluator is the
// implementation; the tests hold a from-scratch reference to it.
type retimer interface {
	// start times l from scratch and makes it the incumbent; later
	// candidates are l with one move applied.
	start(l *layout) (*sched.Schedule, error)
	// retime times the candidate, the incumbent layout with a move
	// that changed the queues of PE a and, unless it is -1, PE c. It
	// fails with sched.ErrStopped once the committed prefix is no
	// longer better than bound. The schedule is valid until the next
	// call.
	retime(a, c int, bound metric) (*sched.Schedule, error)
	// accept makes the last retimed candidate, which completed, the
	// incumbent, and returns its schedule for the caller to keep.
	accept() *sched.Schedule
	// work returns the commits placed by CommitOrder's search and
	// those reused from the incumbent, summed over the search.
	work() (placed, reused int)
}

// evaluator times each candidate on one builder by re-timing only the
// suffix its move changes. It keeps the incumbent's layout and commit
// sequence. A candidate commits exactly the incumbent's sequence up to
// its divergence step (sched.OrderTrace.Divergence), so the evaluator
// rewinds the builder to the last commit it still shares with the
// incumbent, at most that step, and resumes CommitOrder from there. A
// rejected candidate allocates nothing; accept copies the builder's
// placements into a new Schedule.
type evaluator struct {
	b     *sched.Builder
	naive bool
	l     *layout

	trace sched.OrderTrace
	// prefix[i] is the metric of the incumbent's first i commits.
	prefix []metric
	// shared counts the builder's leading commits that are the
	// incumbent's.
	shared  int
	changed [2]int

	placed, reused int
}

// newEvaluator returns an evaluator re-timing on b, a builder for the
// searched schedule's graph, ACG and algorithm. Its re-timing is
// unmetered.
func newEvaluator(b *sched.Builder, naive bool) *evaluator {
	return &evaluator{b: b, naive: naive}
}

func (e *evaluator) start(l *layout) (*sched.Schedule, error) {
	e.l = l
	e.b.Reset(e.b.Graph(), e.b.ACG())
	e.b.SetContentionAware(!e.naive)
	err := e.b.CommitOrder(l.order, nil)
	e.placed += e.b.Committed()
	if err != nil {
		return nil, err
	}
	return e.accept(), nil
}

func (e *evaluator) retime(a, c int, bound metric) (*sched.Schedule, error) {
	changed := append(e.changed[:0], a)
	if c >= 0 {
		changed = append(changed, c)
	}
	d := e.trace.Divergence(e.l.order, changed)
	m := min(e.shared, d)
	e.b.Rewind(m)
	e.reused += m
	cut := cutoff{b: e.b, bound: bound, partial: e.prefix[m]}
	err := e.b.CommitOrder(e.l.order, cut.stop)
	e.placed += e.b.Committed() - m
	e.shared = min(d, e.b.Committed())
	if err != nil {
		return nil, err
	}
	return e.b.Finish()
}

func (e *evaluator) accept() *sched.Schedule {
	v, err := e.b.Finish()
	if err != nil {
		panic(err) // accept follows a completed retime
	}
	s := sched.New(v.Graph, v.ACG, v.Algorithm)
	copy(s.Tasks, v.Tasks)
	copy(s.Transactions, v.Transactions)
	e.trace.Record(e.b)
	seq := e.trace.Seq()
	e.prefix = append(e.prefix[:0], metric{})
	for _, t := range seq {
		m := e.prefix[len(e.prefix)-1]
		m.add(s.Graph.Task(t), s.Tasks[t].Finish)
		e.prefix = append(e.prefix, m)
	}
	e.shared = len(seq)
	return s
}

func (e *evaluator) work() (placed, reused int) { return e.placed, e.reused }

// cutoff tracks the metric of a re-timing's committed prefix. Committed
// placements are final, so the prefix's misses, and at equal misses its
// lateness, only grow: once the prefix is no longer better than bound,
// neither is the finished candidate, and abandoning it is exact.
type cutoff struct {
	b              *sched.Builder
	bound, partial metric
}

// stop is the CommitOrder callback: it folds in committed task t.
func (c *cutoff) stop(t ctg.TaskID) bool {
	c.partial.add(c.b.Graph().Task(t), c.b.TaskPlacement(t).Finish)
	return !c.partial.better(c.bound)
}
