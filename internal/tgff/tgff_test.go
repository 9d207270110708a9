package tgff

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
)

func platform(t *testing.T) *noc.Platform {
	t.Helper()
	p, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 256)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func baseParams(p *noc.Platform) Params {
	return Params{
		Name: "t", Seed: 1, NumTasks: 100, MaxInDegree: 3,
		LocalityWindow: 16, TaskTypes: 10, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 8192,
		ControlEdgeFraction: 0.1, DeadlineLaxity: 1.3, DeadlineFraction: 1,
		Platform: p,
	}
}

func TestParamsValidation(t *testing.T) {
	p := platform(t)
	good := baseParams(p)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	mutations := map[string]func(*Params){
		"tasks":    func(q *Params) { q.NumTasks = 0 },
		"indeg":    func(q *Params) { q.MaxInDegree = 0 },
		"types":    func(q *Params) { q.TaskTypes = 0 },
		"exec":     func(q *Params) { q.ExecMin = 0 },
		"execswap": func(q *Params) { q.ExecMax = q.ExecMin - 1 },
		"vol":      func(q *Params) { q.VolumeMin = -1 },
		"laxity":   func(q *Params) { q.DeadlineLaxity = 0 },
		"dfrac":    func(q *Params) { q.DeadlineFraction = 1.5 },
		"cfrac":    func(q *Params) { q.ControlEdgeFraction = -0.1 },
		"spread":   func(q *Params) { q.HeteroSpread = -1 },
		"platform": func(q *Params) { q.Platform = nil },

		"laxity NaN":  func(q *Params) { q.DeadlineLaxity = math.NaN() },
		"laxity +Inf": func(q *Params) { q.DeadlineLaxity = math.Inf(1) },
		"dfrac NaN":   func(q *Params) { q.DeadlineFraction = math.NaN() },
		"cfrac NaN":   func(q *Params) { q.ControlEdgeFraction = math.NaN() },
		"spread NaN":  func(q *Params) { q.HeteroSpread = math.NaN() },
		"spread +Inf": func(q *Params) { q.HeteroSpread = math.Inf(1) },
	}
	for name, f := range mutations {
		bad := baseParams(p)
		f(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid params accepted", name)
		}
		if _, err := Generate(bad); err == nil {
			t.Errorf("%s: Generate accepted invalid params", name)
		}
	}
}

// TestGenerateRejectsOverflow: finite parameters that pass Validate
// but scale a deadline or an execution time past int64 are an error,
// not a wrapped-around value.
func TestGenerateRejectsOverflow(t *testing.T) {
	p := platform(t)
	for name, f := range map[string]func(*Params){
		"laxity": func(q *Params) { q.DeadlineLaxity = 1e300 },
		"spread": func(q *Params) { q.HeteroSpread = 1e300 },
	} {
		q := baseParams(p)
		f(&q)
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: finite params rejected by Validate: %v", name, err)
		}
		if _, err := Generate(q); err == nil || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("%s: Generate error = %v, want an int64 overflow", name, err)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	p := platform(t)
	g1, err := Generate(baseParams(p))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(baseParams(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Tasks(), g2.Tasks()) || !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Error("same seed produced different graphs")
	}
	alt := baseParams(p)
	alt.Seed = 2
	g3, err := Generate(alt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Edges(), g3.Edges()) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateInjectedRand(t *testing.T) {
	p := platform(t)
	// An injected stream seeded like Params.Seed reproduces the
	// Seed-driven graph exactly, and takes precedence over Seed.
	params := baseParams(p)
	seeded, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	params.Rand = rand.New(rand.NewSource(params.Seed))
	params.Seed = 999 // must be ignored
	injected, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeded.Tasks(), injected.Tasks()) ||
		!reflect.DeepEqual(seeded.Edges(), injected.Edges()) {
		t.Error("injected stream diverged from the equivalent seed")
	}

	// One shared stream across consecutive calls keeps advancing: the
	// second draw differs from the first.
	shared := rand.New(rand.NewSource(5))
	params = baseParams(p)
	params.Rand = shared
	g1, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Error("shared stream did not advance between calls")
	}

	// Concurrent generation is race-free when each goroutine owns its
	// stream (exercised under -race in CI).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			pp := baseParams(p)
			pp.Rand = rand.New(rand.NewSource(seed))
			if _, err := Generate(pp); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
}

func TestGenerateStructure(t *testing.T) {
	p := platform(t)
	params := baseParams(p)
	g, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if g.NumTasks() != params.NumTasks {
		t.Errorf("NumTasks = %d, want %d", g.NumTasks(), params.NumTasks)
	}
	if g.NumPEs() != p.NumPEs() {
		t.Errorf("NumPEs = %d", g.NumPEs())
	}
	// Edge count: each non-source task draws 1..3 preds, so between
	// n-1 and 3(n-1).
	if g.NumEdges() < params.NumTasks-1 || g.NumEdges() > 3*(params.NumTasks-1) {
		t.Errorf("NumEdges = %d out of expected range", g.NumEdges())
	}
	// With DeadlineFraction 1, every sink has a deadline.
	for _, sink := range g.Sinks() {
		if !g.Task(sink).HasDeadline() {
			t.Errorf("sink %d has no deadline", sink)
		}
	}
	// The locality window bounds predecessor distance.
	for _, e := range g.Edges() {
		if int(e.Dst)-int(e.Src) > params.LocalityWindow {
			t.Errorf("edge %d->%d violates locality window %d", e.Src, e.Dst, params.LocalityWindow)
		}
	}
}

func TestVolumesAndControlEdges(t *testing.T) {
	p := platform(t)
	params := baseParams(p)
	params.ControlEdgeFraction = 0.5
	params.NumTasks = 400
	g, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	zero, nonzero := 0, 0
	for _, e := range g.Edges() {
		switch {
		case e.Volume == 0:
			zero++
		case e.Volume >= params.VolumeMin && e.Volume <= params.VolumeMax:
			nonzero++
		default:
			t.Fatalf("edge volume %d outside [%d,%d]", e.Volume, params.VolumeMin, params.VolumeMax)
		}
	}
	if zero == 0 || nonzero == 0 {
		t.Errorf("edge mix degenerate: %d control, %d data", zero, nonzero)
	}
	// Roughly half control edges (generous tolerance).
	frac := float64(zero) / float64(zero+nonzero)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("control fraction %.2f far from 0.5", frac)
	}
}

func TestSuiteShapes(t *testing.T) {
	p := platform(t)
	for _, c := range []Category{CategoryI, CategoryII} {
		for i := 0; i < SuiteSize; i += 3 { // sample the suite
			g, err := Generate(SuiteParams(c, i, p))
			if err != nil {
				t.Fatalf("cat %s idx %d: %v", c, i, err)
			}
			if g.NumTasks() < 450 || g.NumTasks() > 550 {
				t.Errorf("cat %s idx %d: %d tasks, want ~500", c, i, g.NumTasks())
			}
			if g.NumEdges() < 800 || g.NumEdges() > 1200 {
				t.Errorf("cat %s idx %d: %d edges, want ~1000", c, i, g.NumEdges())
			}
		}
	}
	// Category II must be strictly tighter than category I at the same
	// index.
	if SuiteParams(CategoryII, 0, p).DeadlineLaxity >= SuiteParams(CategoryI, 0, p).DeadlineLaxity {
		t.Error("category II not tighter than category I")
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryI.String() != "I" || CategoryII.String() != "II" {
		t.Error("category names wrong")
	}
}

// Property: generated graphs are always valid DAGs with deadlines only
// on sinks and per-PE arrays matching the platform.
func TestQuickGeneratedGraphsValid(t *testing.T) {
	p := platform(t)
	f := func(seed int64, n8 uint8, lax8 uint8) bool {
		params := baseParams(p)
		params.Seed = seed
		params.NumTasks = int(n8%100) + 2
		params.DeadlineLaxity = 0.5 + float64(lax8%30)/10
		g, err := Generate(params)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		for i := 0; i < g.NumTasks(); i++ {
			task := g.Task(ctg.TaskID(i))
			if len(task.ExecTime) != p.NumPEs() {
				return false
			}
			if task.HasDeadline() && len(g.Out(task.ID)) != 0 {
				return false // deadline on a non-sink
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
