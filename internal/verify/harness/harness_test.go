package harness

import (
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/verify"
	"nocsched/internal/verify/workloadgen"
)

// corpusSeed is the fixed seed the CI conformance lane gates on.
const corpusSeed = 7

// TestConformanceCorpus is the differential conformance gate: every
// scheduler, over the full adversarial corpus, must emit schedules the
// oracle accepts without structural findings, with deadline accounting
// consistent with the schedule's own, and that the flit-level
// simulator replays stall-free, on time, and energy-consistent.
func TestConformanceCorpus(t *testing.T) {
	ws, err := workloadgen.Corpus(corpusSeed)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	outcomes := Run(ws, Options{})
	if len(outcomes) != len(ws)*len(Schedulers) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(ws)*len(Schedulers))
	}
	if err := Gate(outcomes); err != nil {
		t.Fatal(err)
	}
	// The oracle's energy class is part of the structural gate, so a
	// passing gate already proves the 0-ULP re-derivation held on
	// every schedule; make the count explicit for the log.
	for i := range outcomes {
		if n := outcomes[i].Report.Count(verify.ClassEnergy); n != 0 {
			t.Errorf("%s/%s: %d energy findings", outcomes[i].Workload, outcomes[i].Scheduler, n)
		}
	}
}

// TestCorpusDeterminism: two corpora from one seed must be identical
// problem instances (the CI gate depends on it).
func TestCorpusDeterminism(t *testing.T) {
	a, err := workloadgen.Corpus(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloadgen.Corpus(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ga, gb := a[i].Graph, b[i].Graph
		if ga.NumTasks() != gb.NumTasks() || ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("workload %s: shapes differ", a[i].Name)
		}
		for id := 0; id < ga.NumTasks(); id++ {
			ta, tb := ga.Task(ctg.TaskID(id)), gb.Task(ctg.TaskID(id))
			if ta.Deadline != tb.Deadline {
				t.Fatalf("workload %s task %d: deadlines differ", a[i].Name, id)
			}
			for k := range ta.ExecTime {
				if ta.ExecTime[k] != tb.ExecTime[k] || ta.Energy[k] != tb.Energy[k] {
					t.Fatalf("workload %s task %d PE %d: attributes differ", a[i].Name, id, k)
				}
			}
		}
	}
}

// TestGateFlagsTamperedSchedule: the gate must reject an outcome whose
// schedule was corrupted after scheduling — the end-to-end proof that
// the differential loop actually has teeth.
func TestGateFlagsTamperedSchedule(t *testing.T) {
	ws, err := workloadgen.Corpus(11)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := Run(ws[:1], Options{Schedulers: []string{"edf"}, SkipSim: true})
	if len(outcomes) != 1 || outcomes[0].Err != nil {
		t.Fatalf("unexpected outcomes: %+v", outcomes)
	}
	if err := Gate(outcomes); err != nil {
		t.Fatalf("untampered gate: %v", err)
	}
	// Shift one task placement without re-deriving anything else.
	s := outcomes[0].Schedule
	s.Tasks[0].Start += 5
	s.Tasks[0].Finish += 5
	outcomes[0].Report = verify.Check(s)
	outcomes[0].StructuralFindings = len(outcomes[0].Report.Structural())
	if err := Gate(outcomes); err == nil {
		t.Fatal("gate accepted a tampered schedule")
	}
}

// TestUnknownScheduler: an unknown algorithm name is a per-outcome
// error, not a panic.
func TestUnknownScheduler(t *testing.T) {
	ws, err := workloadgen.Corpus(5)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := Run(ws[:1], Options{Schedulers: []string{"nope"}, SkipSim: true})
	if len(outcomes) != 1 || outcomes[0].Err == nil {
		t.Fatalf("want one errored outcome, got %+v", outcomes)
	}
	if Gate(outcomes) == nil {
		t.Fatal("gate accepted an errored outcome")
	}
}
