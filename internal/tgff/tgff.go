// Package tgff generates pseudo-random Communication Task Graphs in the
// spirit of the TGFF tool (Dick, Rhodes, Wolf — "TGFF: task graphs for
// free") that the paper uses for its random benchmarks (Sec. 6.1).
//
// This is a from-scratch reimplementation of the parts of TGFF the
// experiments rely on: seeded, reproducible series-parallel-ish DAGs
// with controllable size, fan-in/fan-out, task-type attribute tables,
// communication volumes, and deadline laxity. The paper's two benchmark
// categories (10 graphs each, ~500 tasks, ~1000 transactions, scheduled
// on a 4x4 heterogeneous NoC; category II with tighter deadlines) are
// provided as ready-made suites.
package tgff

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
)

// Params controls graph generation. All randomness derives from Seed.
type Params struct {
	// Name becomes the graph name.
	Name string
	// Seed drives the deterministic RNG.
	Seed int64
	// Rand, when non-nil, supplies the random stream directly and Seed
	// is ignored. Injecting a stream lets a driver interleave graph
	// generation with other draws from one reproducible source. Each
	// concurrent Generate call needs its own *rand.Rand: the generator
	// never locks the stream.
	Rand *rand.Rand

	// NumTasks is the exact number of tasks to generate.
	NumTasks int
	// Shape selects the structural family (layered by default, or
	// series-parallel fork/join blocks).
	Shape Shape
	// MaxInDegree bounds how many predecessors a task draws (>= 1;
	// layered shape). For the series-parallel shape it bounds the
	// fan-out of parallel blocks instead.
	MaxInDegree int
	// LocalityWindow restricts predecessors of task i to tasks in
	// [i-LocalityWindow, i), which yields the layered, pipeline-like
	// structure TGFF's fan-out expansion produces. 0 means no
	// restriction.
	LocalityWindow int

	// TaskTypes is the number of distinct task types; tasks of the
	// same type share execution/energy characteristics, as in TGFF's
	// attribute tables.
	TaskTypes int
	// ExecMin/ExecMax bound the reference execution time of a type.
	ExecMin, ExecMax int64
	// HeteroSpread widens per-type per-class affinity: a type's
	// execution time on a PE class is scaled by a factor drawn from
	// [1/(1+HeteroSpread), 1+HeteroSpread]. 0 leaves only the class
	// speed/power factors as the source of heterogeneity.
	HeteroSpread float64

	// VolumeMin/VolumeMax bound edge communication volumes in bits.
	// A fraction ControlEdgeFraction of edges carry no data.
	VolumeMin, VolumeMax int64
	ControlEdgeFraction  float64

	// DeadlineLaxity sets sink deadlines to laxity * (longest
	// mean-execution path to the sink). Values near 1 are tight;
	// values >= 2 are loose.
	DeadlineLaxity float64
	// DeadlineFraction is the fraction of sink tasks that receive a
	// deadline (TGFF-style graphs put deadlines on sinks).
	DeadlineFraction float64

	// Platform provides the PE classes the per-PE tables are built
	// for.
	Platform *noc.Platform
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	switch {
	case p.NumTasks < 1:
		return fmt.Errorf("tgff: NumTasks %d < 1", p.NumTasks)
	case p.MaxInDegree < 1:
		return fmt.Errorf("tgff: MaxInDegree %d < 1", p.MaxInDegree)
	case p.TaskTypes < 1:
		return fmt.Errorf("tgff: TaskTypes %d < 1", p.TaskTypes)
	case p.ExecMin < 1 || p.ExecMax < p.ExecMin:
		return fmt.Errorf("tgff: bad exec range [%d,%d]", p.ExecMin, p.ExecMax)
	case p.VolumeMin < 0 || p.VolumeMax < p.VolumeMin:
		return fmt.Errorf("tgff: bad volume range [%d,%d]", p.VolumeMin, p.VolumeMax)
	// The float checks are written so that NaN fails them too.
	case !(p.DeadlineLaxity > 0) || math.IsInf(p.DeadlineLaxity, 1):
		return fmt.Errorf("tgff: deadline laxity %g is not a positive finite number", p.DeadlineLaxity)
	case !(p.DeadlineFraction >= 0 && p.DeadlineFraction <= 1):
		return fmt.Errorf("tgff: deadline fraction %g outside [0,1]", p.DeadlineFraction)
	case !(p.ControlEdgeFraction >= 0 && p.ControlEdgeFraction <= 1):
		return fmt.Errorf("tgff: control edge fraction %g outside [0,1]", p.ControlEdgeFraction)
	case !(p.HeteroSpread >= 0) || math.IsInf(p.HeteroSpread, 1):
		return fmt.Errorf("tgff: hetero spread %g is not a non-negative finite number", p.HeteroSpread)
	case p.Shape != ShapeLayered && p.Shape != ShapeSeriesParallel:
		return fmt.Errorf("tgff: unknown shape %v", p.Shape)
	case p.Platform == nil:
		return fmt.Errorf("tgff: nil platform")
	}
	return nil
}

// taskType is one row of the TGFF-style attribute table.
type taskType struct {
	refExec int64
	// perPE execution times and energies, one entry per platform PE.
	exec   []int64
	energy []float64
}

// Generate builds a random CTG according to the parameters.
func Generate(p Params) (*ctg.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := p.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	classes := p.Platform.Classes

	// Attribute table: per type, per PE-class affinity jitter, then
	// concrete per-PE arrays.
	types := make([]taskType, p.TaskTypes)
	classAffinity := func() float64 {
		if p.HeteroSpread == 0 {
			return 1
		}
		lo := 1 / (1 + p.HeteroSpread)
		hi := 1 + p.HeteroSpread
		return lo + rng.Float64()*(hi-lo)
	}
	for i := range types {
		ref := p.ExecMin + rng.Int63n(p.ExecMax-p.ExecMin+1)
		tt := taskType{
			refExec: ref,
			exec:    make([]int64, len(classes)),
			energy:  make([]float64, len(classes)),
		}
		// One affinity per distinct class name so that identical
		// classes on different tiles stay identical, as on a real
		// platform.
		aff := make(map[string]float64)
		for k, c := range classes {
			a, ok := aff[c.Name]
			if !ok {
				a = classAffinity()
				aff[c.Name] = a
			}
			t := math.Round(float64(ref) * c.SpeedFactor * a)
			if t < 1 {
				t = 1
			}
			if t >= math.MaxInt64 {
				return nil, fmt.Errorf("tgff: execution time on PE class %q overflows int64 (hetero spread %g)", c.Name, p.HeteroSpread)
			}
			tt.exec[k] = int64(t)
			tt.energy[k] = float64(ref) * c.EnergyFactor() * a
		}
		types[i] = tt
	}

	g := ctg.New(p.Name)
	ids := make([]ctg.TaskID, p.NumTasks)
	typeOf := make([]int, p.NumTasks)
	for i := 0; i < p.NumTasks; i++ {
		ti := rng.Intn(p.TaskTypes)
		typeOf[i] = ti
		id, err := g.AddTask(fmt.Sprintf("t%d", i), types[ti].exec, types[ti].energy, ctg.NoDeadline)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}

	drawVolume := func() int64 {
		if rng.Float64() >= p.ControlEdgeFraction && p.VolumeMax > 0 {
			return p.VolumeMin + rng.Int63n(p.VolumeMax-p.VolumeMin+1)
		}
		return 0
	}
	switch p.Shape {
	case ShapeSeriesParallel:
		for _, e := range spEdges(rng, p.NumTasks, p.MaxInDegree+1) {
			if _, err := g.AddEdge(ids[e[0]], ids[e[1]], drawVolume()); err != nil {
				return nil, err
			}
		}
	default:
		// Layered: every task after the first draws 1..MaxInDegree
		// distinct predecessors from its locality window, keeping the
		// graph connected and acyclic by construction.
		for i := 1; i < p.NumTasks; i++ {
			lo := 0
			if p.LocalityWindow > 0 && i-p.LocalityWindow > 0 {
				lo = i - p.LocalityWindow
			}
			window := i - lo
			indeg := 1 + rng.Intn(p.MaxInDegree)
			if indeg > window {
				indeg = window
			}
			seen := make(map[int]bool, indeg)
			for len(seen) < indeg {
				seen[lo+rng.Intn(window)] = true
			}
			// Sorted source order keeps edge numbering deterministic
			// (map iteration order is randomized).
			srcs := make([]int, 0, indeg)
			for src := range seen {
				srcs = append(srcs, src)
			}
			sort.Ints(srcs)
			for _, src := range srcs {
				if _, err := g.AddEdge(ids[src], ids[i], drawVolume()); err != nil {
					return nil, err
				}
			}
		}
	}

	if err := assignDeadlines(g, rng, p); err != nil {
		return nil, err
	}
	return g, nil
}

// assignDeadlines gives (a fraction of) the sinks deadlines of
// laxity * longest mean-execution path, the standard TGFF "period/
// deadline from graph depth" recipe.
func assignDeadlines(g *ctg.Graph, rng *rand.Rand, p Params) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	// Longest mean path (execution only; communication adds slack
	// pressure on top, which is what distinguishes the two categories'
	// effective tightness).
	longest := make([]float64, g.NumTasks())
	for _, t := range order {
		task := g.Task(t)
		mean := 0.0
		n := 0
		for k, r := range task.ExecTime {
			if r >= 0 {
				mean += float64(task.ExecTime[k])
				n++
			}
		}
		mean /= float64(n)
		best := 0.0
		for _, pr := range g.Pred(t) {
			if longest[pr] > best {
				best = longest[pr]
			}
		}
		longest[t] = best + mean
	}
	for _, sink := range g.Sinks() {
		if rng.Float64() >= p.DeadlineFraction {
			continue
		}
		v := math.Round(longest[sink] * p.DeadlineLaxity)
		// float64(math.MaxInt64) rounds up to 2^63, the first value
		// that does not fit.
		if v >= math.MaxInt64 {
			return fmt.Errorf("tgff: deadline of sink %q overflows int64 (laxity %g)", g.Task(sink).Name, p.DeadlineLaxity)
		}
		d := int64(v)
		if d < 1 {
			d = 1
		}
		// Deadlines are data, not structure, so poking the task
		// in place is safe here inside the generator.
		g.Task(sink).Deadline = d
	}
	return nil
}

// Category identifies one of the paper's two random benchmark suites.
type Category int

const (
	// CategoryI has the looser deadlines of the paper's first suite.
	CategoryI Category = iota + 1
	// CategoryII has "tighter deadlines" (paper Sec. 6.1).
	CategoryII
)

// String returns "I" or "II".
func (c Category) String() string {
	switch c {
	case CategoryI:
		return "I"
	case CategoryII:
		return "II"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// SuiteSize is the number of benchmarks per category in the paper.
const SuiteSize = 10

// SuiteParams returns the generation parameters for benchmark index
// (0-based) of the given category, targeting ~500 tasks and ~1000
// transactions on the given platform. "Various parameters are used ...
// to generate benchmarks with different topologies and task/
// communication distributions" — the locality window, fan-in, volumes
// and type count all vary across the suite.
func SuiteParams(c Category, index int, platform *noc.Platform) Params {
	// The laxities put the suites at the paper's operating points:
	// category I schedules comfortably but EAS-base occasionally
	// misses a deadline; category II is tight enough that several
	// benchmarks need search-and-repair. (Laxity is relative to the
	// longest mean-execution path; fast PEs run well below the mean,
	// so values near 1 still leave room.)
	laxity := 1.30 - 0.02*float64(index) // category I: loose
	if c == CategoryII {
		laxity = 1.05 - 0.005*float64(index) // category II: tight
	}
	return Params{
		Name:                fmt.Sprintf("tgff-cat%s-%02d", c, index),
		Seed:                int64(c)*10_000 + int64(index)*101 + 7,
		NumTasks:            480 + 5*index, // "around 500 tasks"
		MaxInDegree:         3,             // ~1000 transactions
		LocalityWindow:      24 + 8*(index%4),
		TaskTypes:           16 + 2*(index%5),
		ExecMin:             40,
		ExecMax:             400,
		HeteroSpread:        0.5,
		VolumeMin:           512,
		VolumeMax:           16384,
		ControlEdgeFraction: 0.1,
		DeadlineLaxity:      laxity,
		DeadlineFraction:    1.0,
		Platform:            platform,
	}
}
