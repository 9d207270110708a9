package verify_test

import (
	"strings"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/verify"
)

// rig builds the fixed known-good instance every known-bad mutation
// starts from: a 2x2 XY mesh (bandwidth 16) and a diamond-ish CTG
//
//	a --32--> b --32--> c        (data edges)
//	a --32--> c                  (data edge)
//	a --0---> d                  (control edge)
//
// with c carrying a generous deadline, scheduled by the builder onto
// distinct PEs so every data transaction owns a real multi-link or
// single-link route.
func rig(t *testing.T) (*ctg.Graph, *energy.ACG, *sched.Schedule) {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(2, 2, noc.RouteXY, 16)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(p, energy.Model{ESbit: 0.284, ELbit: 0.449})
	if err != nil {
		t.Fatal(err)
	}
	g := ctg.New("verify-rig")
	exec := []int64{10, 10, 10, -1} // PE 3 incapable, for the task-placement case
	eng := []float64{5, 7, 6, 0}
	add := func(name string, deadline int64) ctg.TaskID {
		id, err := g.AddTask(name, exec, eng, deadline)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := add("a", ctg.NoDeadline)
	b := add("b", ctg.NoDeadline)
	c := add("c", 100)
	d := add("d", ctg.NoDeadline)
	edge := func(src, dst ctg.TaskID, vol int64) {
		if _, err := g.AddEdge(src, dst, vol); err != nil {
			t.Fatal(err)
		}
	}
	edge(a, b, 32) // edge 0: PE0 -> PE2, 2 time units
	edge(b, c, 32) // edge 1
	edge(a, c, 32) // edge 2: shares a's outgoing link with edge 0
	edge(a, d, 0)  // edge 3: control
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	bld := sched.NewBuilder(g, acg, "rig")
	for _, c := range []struct {
		task ctg.TaskID
		pe   int
	}{{a, 0}, {b, 2}, {c, 1}, {d, 0}} {
		if _, err := bld.Commit(c.task, c.pe); err != nil {
			t.Fatalf("commit task %d: %v", c.task, err)
		}
	}
	s, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("rig schedule invalid: %v", err)
	}
	if rep := verify.Check(s); !rep.OK() {
		t.Fatalf("oracle flags the known-good rig:\n%s", rep)
	}
	return g, acg, s
}

// clone deep-copies a schedule's placements (routes included, since
// mutations edit them in place).
func clone(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Tasks = append([]sched.TaskPlacement(nil), s.Tasks...)
	c.Transactions = append([]sched.TransactionPlacement(nil), s.Transactions...)
	for i := range c.Transactions {
		c.Transactions[i].Route = append([]noc.LinkID(nil), s.Transactions[i].Route...)
	}
	return &c
}

// findLink locates a topology link by endpoints.
func findLink(t *testing.T, topo noc.Topology, from, to noc.TileID) noc.LinkID {
	t.Helper()
	for id := 0; id < topo.NumLinks(); id++ {
		l := topo.Link(noc.LinkID(id))
		if l.From == from && l.To == to {
			return noc.LinkID(id)
		}
	}
	t.Fatalf("no link %d->%d", from, to)
	return -1
}

// zeroHopsFrom is a user-defined topology that routes like the one it
// wraps but reports zero hops for every route leaving tile from.
type zeroHopsFrom struct {
	noc.Topology
	from noc.TileID
}

func (z zeroHopsFrom) Hops(src, dst noc.TileID) int {
	if src == z.from {
		return 0
	}
	return z.Topology.Hops(src, dst)
}

// TestKnownBadSchedules mutates the known-good rig one violation class
// at a time and asserts the oracle reports exactly the expected typed
// finding.
func TestKnownBadSchedules(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, s *sched.Schedule)
		class  verify.Class
		// only asserts the expected class is the sole finding class.
		only bool
		// check inspects the matching findings further.
		check func(t *testing.T, fs []verify.Finding)
	}{
		{
			name:   "truncated task slots",
			mutate: func(t *testing.T, s *sched.Schedule) { s.Tasks = s.Tasks[:len(s.Tasks)-1] },
			class:  verify.ClassShape,
		},
		{
			name: "swapped task slots",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Tasks[0], s.Tasks[1] = s.Tasks[1], s.Tasks[0]
			},
			class: verify.ClassShape,
		},
		{
			name: "task on incapable PE",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Tasks[1].PE = 3 // exec[3] == -1 for every task
			},
			class: verify.ClassTask,
			check: func(t *testing.T, fs []verify.Finding) {
				if fs[0].Task != 1 || fs[0].PE != 3 {
					t.Errorf("finding %+v, want task 1 on PE 3", fs[0])
				}
			},
		},
		{
			name: "negative start",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Tasks[0].Start = -5
				s.Tasks[0].Finish = 5
			},
			class: verify.ClassTask,
			only:  true,
		},
		{
			name: "finish not start+exec",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Tasks[0].Finish--
			},
			class: verify.ClassTask,
			only:  true,
			check: func(t *testing.T, fs []verify.Finding) {
				if !strings.Contains(fs[0].Detail, "want") {
					t.Errorf("detail %q lacks the expected value", fs[0].Detail)
				}
			},
		},
		{
			name: "pe mutual exclusion (Definition 4)",
			mutate: func(t *testing.T, s *sched.Schedule) {
				// Pile c onto b's PE over b's interval.
				b := s.Tasks[1]
				s.Tasks[2].PE = b.PE
				s.Tasks[2].Start = b.Start
				s.Tasks[2].Finish = b.Start + 10
			},
			class: verify.ClassPEOverlap,
			check: func(t *testing.T, fs []verify.Finding) {
				if fs[0].PE != 2 {
					t.Errorf("overlap reported on PE %d, want 2", fs[0].PE)
				}
			},
		},
		{
			name: "transaction before sender finishes",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Transactions[0].Start--
				s.Transactions[0].Finish--
			},
			class: verify.ClassPrecedence,
		},
		{
			name: "transaction after receiver starts",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Transactions[1].Start += 1000
				s.Transactions[1].Finish += 1000
			},
			class: verify.ClassPrecedence,
		},
		{
			name: "transaction duration off by one",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Transactions[0].Finish++
			},
			class: verify.ClassPrecedence,
			check: func(t *testing.T, fs []verify.Finding) {
				found := false
				for _, f := range fs {
					if strings.Contains(f.Detail, "lasts") {
						found = true
					}
				}
				if !found {
					t.Error("no duration finding")
				}
			},
		},
		{
			name: "route chain broken",
			mutate: func(t *testing.T, s *sched.Schedule) {
				topo := s.ACG.Platform().Topo
				// First hop of a PE0 -> PE2 route replaced by a link
				// that does not leave tile 0.
				s.Transactions[0].Route[0] = findLink(t, topo, 3, 1)
			},
			class: verify.ClassRoute,
		},
		{
			name: "route deviates from deterministic ACG route",
			mutate: func(t *testing.T, s *sched.Schedule) {
				topo := s.ACG.Platform().Topo
				// A physically valid 0->2 path that is not the ACG's
				// XY route for edge 2 (a->c goes 0->1 on this mesh;
				// reroute it 0->2->3->1: longer but connected).
				s.Transactions[2].Route = []noc.LinkID{
					findLink(t, topo, 0, 2),
					findLink(t, topo, 2, 3),
					findLink(t, topo, 3, 1),
				}
			},
			class: verify.ClassRoute,
		},
		{
			name: "zero-time transaction with route",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Transactions[3].Route = []noc.LinkID{0}
			},
			class: verify.ClassRoute,
			only:  true,
		},
		{
			name: "data transaction with no route",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Transactions[0].Route = nil
			},
			class: verify.ClassRoute,
			only:  true,
		},
		{
			name: "route revisits a link",
			mutate: func(t *testing.T, s *sched.Schedule) {
				r := s.Transactions[0].Route
				s.Transactions[0].Route = []noc.LinkID{r[0], r[0]}
			},
			class: verify.ClassRoute,
		},
		{
			name: "link slot capacity (Definition 3)",
			mutate: func(t *testing.T, s *sched.Schedule) {
				// a->b and a->c leave tile 0 on disjoint XY links at
				// the same slot; reroute a->c onto a->b's link so the
				// slots collide (the detour also draws route findings;
				// the link overlap is what this case pins down).
				s.Transactions[2].Route = []noc.LinkID{s.Transactions[0].Route[0]}
				s.Transactions[2].Start = s.Transactions[0].Start
				s.Transactions[2].Finish = s.Transactions[0].Finish
			},
			class: verify.ClassLinkOverlap,
			check: func(t *testing.T, fs []verify.Finding) {
				if fs[0].Link < 0 {
					t.Errorf("overlap finding %+v lacks the contended link", fs[0])
				}
			},
		},
		{
			name: "hard deadline missed",
			mutate: func(t *testing.T, s *sched.Schedule) {
				s.Tasks[2].Start = 200
				s.Tasks[2].Finish = 210
			},
			class: verify.ClassDeadline,
			only:  true,
			check: func(t *testing.T, fs []verify.Finding) {
				if fs[0].Task != 2 {
					t.Errorf("deadline finding on task %d, want 2", fs[0].Task)
				}
			},
		},
		{
			name: "energy priced over unroutable pair",
			mutate: func(t *testing.T, s *sched.Schedule) {
				// Rebind the schedule to a topology that still routes
				// every pair but reports zero hops out of tile 2, where
				// b runs: the energy recorded for b->c becomes
				// unaccountable.
				old := s.ACG.Platform()
				p, err := noc.NewPlatform(zeroHopsFrom{old.Topo, 2}, old.Classes, old.LinkBandwidth)
				if err != nil {
					t.Fatal(err)
				}
				acg, err := energy.BuildACG(p, s.ACG.Model())
				if err != nil {
					t.Fatal(err)
				}
				s.ACG = acg
			},
			class: verify.ClassEnergy,
			check: func(t *testing.T, fs []verify.Finding) {
				if !strings.Contains(fs[0].Detail, "unaccountable") {
					t.Errorf("finding %+v, want unaccountable-energy detail", fs[0])
				}
			},
		},
	}

	_, _, base := rig(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clone(base)
			tc.mutate(t, s)
			rep := verify.Check(s)
			fs := rep.ByClass(tc.class)
			if len(fs) == 0 {
				t.Fatalf("no %v finding; report:\n%s", tc.class, rep)
			}
			if tc.only {
				for _, f := range rep.Findings {
					if f.Class != tc.class {
						t.Errorf("unexpected extra finding: %s", f)
					}
				}
			}
			if tc.check != nil {
				tc.check(t, fs)
			}
			if rep.Err() == nil {
				t.Error("Err() nil for a failing report")
			}
		})
	}
}

// TestReportPlumbing covers the report accessors and JSON round trip
// of the finding taxonomy.
func TestReportPlumbing(t *testing.T) {
	_, _, s := rig(t)
	rep := verify.Check(s)
	if !rep.OK() || rep.Err() != nil || rep.String() != "ok" {
		t.Fatalf("clean schedule: OK=%v err=%v", rep.OK(), rep.Err())
	}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "findings") {
		t.Errorf("JSON %q lacks findings key", buf.String())
	}
	for _, c := range verify.Classes() {
		b, err := c.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back verify.Class
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Errorf("class %v round-trips to %v", c, back)
		}
	}
	var bad verify.Class
	if err := bad.UnmarshalJSON([]byte(`"no-such-class"`)); err == nil {
		t.Error("unknown class name accepted")
	}
}

// TestReportStructural: Structural keeps every non-deadline finding,
// in check order, and nothing else.
func TestReportStructural(t *testing.T) {
	rep := &verify.Report{Findings: []verify.Finding{
		{Class: verify.ClassDeadline, Task: 1, Detail: "late"},
		{Class: verify.ClassPEOverlap, Task: 2, Detail: "overlap"},
		{Class: verify.ClassDeadline, Task: 3, Detail: "late"},
		{Class: verify.ClassEnergy, Task: 4, Detail: "energy"},
	}}
	got := rep.Structural()
	if len(got) != 2 || got[0].Class != verify.ClassPEOverlap || got[1].Class != verify.ClassEnergy {
		t.Fatalf("Structural = %+v, want the PE-overlap then the energy finding", got)
	}
	if got := (&verify.Report{}).Structural(); len(got) != 0 {
		t.Errorf("clean report: Structural = %+v", got)
	}
	deadlineOnly := &verify.Report{Findings: rep.ByClass(verify.ClassDeadline)}
	if got := deadlineOnly.Structural(); len(got) != 0 {
		t.Errorf("deadline-only report: Structural = %+v", got)
	}
}

// TestNilSchedule: a nil or unbound schedule is a shape finding, not a
// panic.
func TestNilSchedule(t *testing.T) {
	for _, s := range []*sched.Schedule{nil, {}} {
		rep := verify.Check(s)
		if rep.Count(verify.ClassShape) == 0 {
			t.Errorf("schedule %+v: no shape finding", s)
		}
	}
}

// TestMaxFindingsTruncation: the finding cap must be honored and
// reported.
func TestMaxFindingsTruncation(t *testing.T) {
	_, _, s := rig(t)
	bad := clone(s)
	// Break everything at once.
	for i := range bad.Tasks {
		bad.Tasks[i].Start = -1 - int64(i)
		bad.Tasks[i].Finish = -1
	}
	rep := verify.CheckOptions(bad, verify.Options{MaxFindings: 2})
	if len(rep.Findings) != 2 || !rep.Truncated {
		t.Fatalf("got %d findings, truncated=%v; want 2, true", len(rep.Findings), rep.Truncated)
	}
}
