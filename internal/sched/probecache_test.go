package sched

import (
	"math/rand"
	"slices"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
	"nocsched/internal/verify/workloadgen"
)

// cacheInput is one problem instance of the probe-cache oracles.
type cacheInput struct {
	g   *ctg.Graph
	acg *energy.ACG
}

// cacheInputs is workloadgen.Corpus(1) followed by n 300-task Category I
// suite graphs on a 4x4 heterogeneous mesh.
func cacheInputs(t *testing.T, n int) []cacheInput {
	t.Helper()
	ws, err := workloadgen.Corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	var in []cacheInput
	for _, w := range ws {
		in = append(in, cacheInput{w.Graph, w.ACG})
	}
	platform, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 100)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := tgff.SuiteParams(tgff.CategoryI, i, platform)
		p.NumTasks = 300
		g, err := tgff.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, cacheInput{g, acg})
	}
	return in
}

// scanReady is the Ready Task List by definition: every uncommitted
// task whose predecessors are all committed, in task-ID order.
func scanReady(b *Builder) []ctg.TaskID {
	var out []ctg.TaskID
	for i := 0; i < b.g.NumTasks(); i++ {
		t := ctg.TaskID(i)
		if b.placed[t] {
			continue
		}
		ready := true
		for _, eid := range b.g.In(t) {
			ready = ready && b.placed[b.g.Edge(eid).Src]
		}
		if ready {
			out = append(out, t)
		}
	}
	return out
}

// randomPE returns a random PE that can run task t.
func randomPE(rng *rand.Rand, g *ctg.Graph, t ctg.TaskID) int {
	for {
		if k := rng.Intn(g.NumPEs()); g.Task(t).RunnableOn(k) {
			return k
		}
	}
}

// driveRandom commits every remaining task of b's graph in a random
// order, on random capable PEs, alternating Commit with CommitAfter
// under a random floor. Before every commit it calls check; after the
// round numbered flipAt (negative: never) it switches the builder to the
// naive contention model.
func driveRandom(t *testing.T, b *Builder, rng *rand.Rand, flipAt int, check func()) {
	t.Helper()
	for round := 0; b.Committed() < b.g.NumTasks(); round++ {
		check()
		if round == flipAt {
			b.SetContentionAware(false)
			check()
		}
		ready := b.ReadyTasks()
		if len(ready) == 0 {
			t.Fatal("no ready tasks before completion")
		}
		task := ready[rng.Intn(len(ready))]
		k := randomPE(rng, b.g, task)
		var err error
		if rng.Intn(2) == 0 {
			_, err = b.Commit(task, k)
		} else {
			_, err = b.CommitAfter(task, k, rng.Int63n(500))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
}

// forEachScenario runs every builder history the probe cache must
// survive over each input, on one builder reused across all of them so
// that same-ACG and different-ACG Resets are part of the history too:
// plain random commits and a naive-contention switch mid-run.
func forEachScenario(t *testing.T, inputs []cacheInput, check func(b *Builder)) {
	t.Helper()
	var b *Builder
	for i, in := range inputs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		if b == nil {
			b = NewBuilder(in.g, in.acg, "test")
		} else {
			b.Reset(in.g, in.acg)
		}
		chk := func() { check(b) }
		driveRandom(t, b, rng, -1, chk)

		b.Reset(in.g, in.acg)
		driveRandom(t, b, rng, in.g.NumTasks()/2, chk)
	}
}

// TestProbeCachedDifferential is the exactness oracle of the probe
// cache: before every commit of every scenario, ProbeCached must answer
// exactly what a fresh Probe computes, field for field, for every ready
// task on every PE (errors included).
func TestProbeCachedDifferential(t *testing.T) {
	inputs := cacheInputs(t, 2)
	var pr *Prober
	var prACG *energy.ACG // a prober is sized for its builder's platform
	var checked, reused int64
	forEachScenario(t, inputs, func(b *Builder) {
		if pr == nil || prACG != b.acg {
			pr, prACG = b.NewProber(), b.acg
		}
		before := pr.Reuses()
		for _, task := range b.ReadyTasks() {
			for k := 0; k < b.acg.NumPEs(); k++ {
				got, gotErr := pr.ProbeCached(task, k)
				want, wantErr := pr.Probe(task, k)
				if (gotErr != nil) != (wantErr != nil) || got != want {
					t.Fatalf("%s task %d PE %d after %d commits: cached %+v (err %v), fresh %+v (err %v)",
						b.g.Name, task, k, b.Committed(), got, gotErr, want, wantErr)
				}
				checked++
			}
		}
		reused += pr.Reuses() - before
	})
	if reused == 0 || reused == checked {
		t.Fatalf("%d of %d cached probes reused: the oracle must see both hits and misses", reused, checked)
	}
	t.Logf("%d of %d cached probes reused", reused, checked)
}

// TestReadyListIncremental checks the ready list the builder maintains
// commit by commit against the full scan, after every commit of every
// scenario, and that once the list has been read exactly the ready
// tasks hold cache slots.
func TestReadyListIncremental(t *testing.T) {
	forEachScenario(t, cacheInputs(t, 1), func(b *Builder) {
		if got, want := b.ReadyTasks(), scanReady(b); !slices.Equal(got, want) {
			t.Fatalf("%s after %d commits: ready list %v, full scan %v", b.g.Name, b.Committed(), got, want)
		}
		slots := 0
		for i, s := range b.slot {
			if (s >= 0) != b.Ready(ctg.TaskID(i)) {
				t.Fatalf("%s: task %d slot %d, ready %v", b.g.Name, i, s, b.Ready(ctg.TaskID(i)))
			}
			if s >= 0 {
				slots++
			}
		}
		if rows := len(b.cache) / b.acg.NumPEs(); slots+len(b.freeSlots) != rows {
			t.Fatalf("%s: %d slots held + %d free != %d rows", b.g.Name, slots, len(b.freeSlots), rows)
		}
	})
}
