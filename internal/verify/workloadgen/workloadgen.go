// Package workloadgen builds seeded adversarial problem instances —
// CTG + platform + ACG triples — for the conformance oracle and the
// cross-scheduler differential harness. Every generator is
// deterministic in its seed, and every family is chosen to stress a
// different schedule invariant: deep chains serialize precedence
// through long communication paths, wide fan-outs funnel contention
// onto hub links, zero-slack deadlines push tightening and repair,
// degenerate 1xN meshes force all traffic through one line of links,
// torus wrap-around and sparse graph topologies exercise non-mesh
// routing, and parallel/control/zero-exec degeneracies probe the
// zero-width corner cases of the slot tables.
package workloadgen

import (
	"fmt"
	"math/rand"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

// Workload is one complete problem instance.
type Workload struct {
	Name     string
	Graph    *ctg.Graph
	Platform *noc.Platform
	ACG      *energy.ACG
}

// Model is the energy model every generated ACG uses — the paper's
// Eq. (2) parameters in nJ/bit, arbitrary but fixed so corpus energy
// values are reproducible.
var Model = energy.Model{ESbit: 0.284, ELbit: 0.449}

// mustACG builds an ACG, failing loudly: generator platforms are
// constructed connected by design, so a build error is a generator bug.
func mustACG(p *noc.Platform) (*energy.ACG, error) {
	return energy.BuildACG(p, Model)
}

// mesh builds a heterogeneous WxH XY mesh platform.
func mesh(w, h int, bw int64) (*noc.Platform, error) {
	return noc.NewHeterogeneousMesh(w, h, noc.RouteXY, bw)
}

// classes cycles the standard heterogeneous library over n tiles.
func classes(n int) []noc.PEClass {
	out := make([]noc.PEClass, n)
	for i := range out {
		out[i] = noc.StandardClasses[i%len(noc.StandardClasses)]
	}
	return out
}

// execRow draws a per-PE execution-time row: base cycles scaled by
// each PE class's speed factor, with a deterministic per-task jitter.
// A negative capability mask entry (restrict >= 0) marks every PE
// except restrict%npes incapable, forcing placement.
func execRow(rng *rand.Rand, p *noc.Platform, base int64, restrict int) ([]int64, []float64) {
	n := p.NumPEs()
	exec := make([]int64, n)
	eng := make([]float64, n)
	for k := 0; k < n; k++ {
		cls := p.Classes[k]
		e := int64(float64(base) * cls.SpeedFactor)
		if e < 1 {
			e = 1
		}
		e += rng.Int63n(3)
		exec[k] = e
		eng[k] = float64(e) * cls.EnergyFactor()
		if restrict >= 0 && k != restrict%n {
			exec[k] = -1
		}
	}
	return exec, eng
}

// DeepChain is a single dependency chain of n tasks with heavy
// alternating volumes and per-task capability restrictions that bounce
// the chain across the mesh, so every hop pays real communication
// delay on a multi-link route.
func DeepChain(seed int64, n int) (Workload, error) {
	p, err := mesh(3, 3, 64)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New(fmt.Sprintf("deep-chain-%d", n))
	prev := ctg.TaskID(-1)
	for i := 0; i < n; i++ {
		// Bounce between opposite mesh corners on odd/even ranks.
		restrict := 0
		if i%2 == 1 {
			restrict = p.NumPEs() - 1
		}
		exec, eng := execRow(rng, p, 20+rng.Int63n(30), restrict)
		id, err := g.AddTask(fmt.Sprintf("c%d", i), exec, eng, ctg.NoDeadline)
		if err != nil {
			return Workload{}, err
		}
		if prev >= 0 {
			vol := int64(96 + rng.Int63n(512))
			if i%3 == 0 {
				vol = 1 // sub-flit volume: still one slot on every link
			}
			if _, err := g.AddEdge(prev, id, vol); err != nil {
				return Workload{}, err
			}
		}
		prev = id
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: g.Name, Graph: g, Platform: p, ACG: acg}, nil
}

// WideFanOut is one source feeding width consumers that all funnel
// into one sink, with the source and sink pinned to the same corner so
// every return transaction contends for the links around one tile.
func WideFanOut(seed int64, width int) (Workload, error) {
	p, err := mesh(4, 4, 64)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New(fmt.Sprintf("fan-out-%d", width))
	exec, eng := execRow(rng, p, 15, 0)
	src, err := g.AddTask("src", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	mid := make([]ctg.TaskID, width)
	for i := 0; i < width; i++ {
		exec, eng := execRow(rng, p, 25+rng.Int63n(40), -1)
		mid[i], err = g.AddTask(fmt.Sprintf("w%d", i), exec, eng, ctg.NoDeadline)
		if err != nil {
			return Workload{}, err
		}
		if _, err := g.AddEdge(src, mid[i], 128+rng.Int63n(256)); err != nil {
			return Workload{}, err
		}
	}
	exec, eng = execRow(rng, p, 10, 0)
	sink, err := g.AddTask("sink", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	for i := 0; i < width; i++ {
		if _, err := g.AddEdge(mid[i], sink, 192+rng.Int63n(256)); err != nil {
			return Workload{}, err
		}
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: g.Name, Graph: g, Platform: p, ACG: acg}, nil
}

// ZeroSlack is a chain whose per-task deadlines equal the cumulative
// fastest possible execution time, ignoring communication entirely —
// zero or negative slack once any transfer costs a cycle. It stresses
// the deadline-tightening and repair passes; deadline misses are a
// legitimate outcome, so harnesses must cross-check them rather than
// forbid them.
func ZeroSlack(seed int64, n int) (Workload, error) {
	p, err := mesh(3, 3, 128)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New(fmt.Sprintf("zero-slack-%d", n))
	prev := ctg.TaskID(-1)
	var cumFastest int64
	for i := 0; i < n; i++ {
		exec, eng := execRow(rng, p, 30+rng.Int63n(20), -1)
		fastest := exec[0]
		for _, e := range exec {
			if e >= 0 && e < fastest {
				fastest = e
			}
		}
		cumFastest += fastest
		id, err := g.AddTask(fmt.Sprintf("z%d", i), exec, eng, cumFastest)
		if err != nil {
			return Workload{}, err
		}
		if prev >= 0 {
			if _, err := g.AddEdge(prev, id, 64+rng.Int63n(128)); err != nil {
				return Workload{}, err
			}
		}
		prev = id
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: g.Name, Graph: g, Platform: p, ACG: acg}, nil
}

// Line1xN is a degenerate 1xN mesh: a pipeline plus end-to-end cross
// traffic, so every transaction shares the single line of links and
// the link-capacity invariant carries the whole schedule.
func Line1xN(seed int64, n int) (Workload, error) {
	p, err := mesh(n, 1, 32)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New(fmt.Sprintf("line-1x%d", n))
	ids := make([]ctg.TaskID, n)
	for i := 0; i < n; i++ {
		exec, eng := execRow(rng, p, 12+rng.Int63n(12), i)
		var err error
		ids[i], err = g.AddTask(fmt.Sprintf("l%d", i), exec, eng, ctg.NoDeadline)
		if err != nil {
			return Workload{}, err
		}
		if i > 0 {
			if _, err := g.AddEdge(ids[i-1], ids[i], 48+rng.Int63n(96)); err != nil {
				return Workload{}, err
			}
		}
	}
	// Cross traffic: first tile's task also feeds the last tile's task
	// directly, spanning the entire line.
	if n > 2 {
		if _, err := g.AddEdge(ids[0], ids[n-1], 256); err != nil {
			return Workload{}, err
		}
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: g.Name, Graph: g, Platform: p, ACG: acg}, nil
}

// TorusMix is a small fork-join workload on a torus, whose wrap-around
// links give minimal routes a mesh would not have.
func TorusMix(seed int64) (Workload, error) {
	topo, err := noc.NewTorus(4, 4)
	if err != nil {
		return Workload{}, err
	}
	p, err := noc.NewPlatform(topo, classes(topo.NumTiles()), 64)
	if err != nil {
		return Workload{}, err
	}
	return forkJoinOn(p, "torus-mix", seed)
}

// SparseStar is a star graph topology: every route between spokes
// crosses the hub, the closest connected shape to a disconnection.
// It exercises route validity on irregular (non-mesh) topologies.
func SparseStar(seed int64, spokes int) (Workload, error) {
	adj := make([][]noc.TileID, spokes+1)
	for s := 1; s <= spokes; s++ {
		adj[0] = append(adj[0], noc.TileID(s))
		adj[s] = []noc.TileID{0}
	}
	topo, err := noc.NewGraphTopology(fmt.Sprintf("star-%d", spokes), adj)
	if err != nil {
		return Workload{}, err
	}
	p, err := noc.NewPlatform(topo, classes(topo.NumTiles()), 48)
	if err != nil {
		return Workload{}, err
	}
	return forkJoinOn(p, fmt.Sprintf("sparse-star-%d", spokes), seed)
}

// forkJoinOn builds a two-level fork/join CTG sized to the platform.
func forkJoinOn(p *noc.Platform, name string, seed int64) (Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New(name)
	exec, eng := execRow(rng, p, 18, -1)
	root, err := g.AddTask("root", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	n := p.NumPEs()
	branch := make([]ctg.TaskID, 0, n)
	for i := 0; i < n; i++ {
		exec, eng := execRow(rng, p, 20+rng.Int63n(25), i)
		id, err := g.AddTask(fmt.Sprintf("b%d", i), exec, eng, ctg.NoDeadline)
		if err != nil {
			return Workload{}, err
		}
		if _, err := g.AddEdge(root, id, 64+rng.Int63n(192)); err != nil {
			return Workload{}, err
		}
		branch = append(branch, id)
	}
	exec, eng = execRow(rng, p, 14, -1)
	join, err := g.AddTask("join", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	for _, id := range branch {
		if _, err := g.AddEdge(id, join, 32+rng.Int63n(128)); err != nil {
			return Workload{}, err
		}
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: name, Graph: g, Platform: p, ACG: acg}, nil
}

// Degenerate packs the zero-width corner cases into one instance:
// zero-execution-time tasks, pure control edges (volume 0), parallel
// data edges between one task pair, and a task runnable on exactly one
// PE — all on a tiny 2x2 mesh.
func Degenerate(seed int64) (Workload, error) {
	p, err := mesh(2, 2, 16)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := ctg.New("degenerate")
	zeroExec := make([]int64, p.NumPEs())
	zeroEng := make([]float64, p.NumPEs())
	a, err := g.AddTask("a-zero", zeroExec, zeroEng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	exec, eng := execRow(rng, p, 10, 3)
	b, err := g.AddTask("b-pinned", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	exec, eng = execRow(rng, p, 8, -1)
	c, err := g.AddTask("c", exec, eng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	d, err := g.AddTask("d-zero", zeroExec, zeroEng, ctg.NoDeadline)
	if err != nil {
		return Workload{}, err
	}
	// Control edge, two parallel data edges, and a control edge out of
	// a zero-width task.
	if _, err := g.AddEdge(a, b, 0); err != nil {
		return Workload{}, err
	}
	if _, err := g.AddEdge(b, c, 40); err != nil {
		return Workload{}, err
	}
	if _, err := g.AddEdge(b, c, 24); err != nil {
		return Workload{}, err
	}
	if _, err := g.AddEdge(c, d, 0); err != nil {
		return Workload{}, err
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: "degenerate", Graph: g, Platform: p, ACG: acg}, nil
}

// RandomTGFF is a seeded TGFF-style layered DAG with tight-ish
// deadlines on a 4x4 mesh — the "anything can happen" member of the
// corpus.
func RandomTGFF(seed int64, tasks int) (Workload, error) {
	p, err := mesh(4, 4, 64)
	if err != nil {
		return Workload{}, err
	}
	g, err := tgff.Generate(tgff.Params{
		Name:                fmt.Sprintf("tgff-%d-%d", tasks, seed),
		Seed:                seed,
		NumTasks:            tasks,
		Shape:               tgff.ShapeLayered,
		MaxInDegree:         3,
		LocalityWindow:      12,
		TaskTypes:           8,
		ExecMin:             10,
		ExecMax:             60,
		HeteroSpread:        0.4,
		VolumeMin:           16,
		VolumeMax:           512,
		ControlEdgeFraction: 0.15,
		DeadlineLaxity:      1.6,
		DeadlineFraction:    0.8,
		Platform:            p,
	})
	if err != nil {
		return Workload{}, err
	}
	acg, err := mustACG(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: g.Name, Graph: g, Platform: p, ACG: acg}, nil
}

// Corpus returns the full deterministic adversarial corpus for a seed.
// Two corpora with the same seed are identical, including every
// execution time, volume, and deadline, so CI can gate on fixed seeds.
func Corpus(seed int64) ([]Workload, error) {
	type gen struct {
		name  string
		build func(int64) (Workload, error)
	}
	gens := []gen{
		{"deep-chain", func(s int64) (Workload, error) { return DeepChain(s, 14) }},
		{"wide-fan-out", func(s int64) (Workload, error) { return WideFanOut(s, 12) }},
		{"zero-slack", func(s int64) (Workload, error) { return ZeroSlack(s, 10) }},
		{"line-1x8", func(s int64) (Workload, error) { return Line1xN(s, 8) }},
		{"torus-mix", TorusMix},
		{"sparse-star", func(s int64) (Workload, error) { return SparseStar(s, 6) }},
		{"degenerate", Degenerate},
		{"tgff-small", func(s int64) (Workload, error) { return RandomTGFF(s, 40) }},
		{"tgff-medium", func(s int64) (Workload, error) { return RandomTGFF(s, 80) }},
	}
	out := make([]Workload, 0, len(gens))
	for i, gn := range gens {
		w, err := gn.build(seed*1000 + int64(i))
		if err != nil {
			return nil, fmt.Errorf("workloadgen: %s: %w", gn.name, err)
		}
		if err := w.Graph.Validate(); err != nil {
			return nil, fmt.Errorf("workloadgen: %s: invalid graph: %w", gn.name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// Golden is the corpus the schedule-digest tests pin: Corpus(1)
// followed by three 300-task Category I suite graphs on a 4x4
// heterogeneous mesh under the default energy model.
func Golden() ([]Workload, error) {
	ws, err := Corpus(1)
	if err != nil {
		return nil, err
	}
	platform, err := mesh(4, 4, 100)
	if err != nil {
		return nil, err
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		p := tgff.SuiteParams(tgff.CategoryI, i, platform)
		p.NumTasks = 300
		g, err := tgff.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("workloadgen: golden suite graph %d: %w", i, err)
		}
		ws = append(ws, Workload{Name: g.Name, Graph: g, Platform: platform, ACG: acg})
	}
	return ws, nil
}

// ZeroEvery returns a copy of g in which every nth task, from task 0,
// runs in zero time on each PE that can run it. Committing such a task
// writes no PE table, yet still places work on its PE: the corner case
// of schedulers that track per-PE state beside the tables.
func ZeroEvery(g *ctg.Graph, nth int) (*ctg.Graph, error) {
	out := ctg.New(g.Name + "-zero")
	for i, task := range g.Tasks() {
		exec := append([]int64(nil), task.ExecTime...)
		if i%nth == 0 {
			for k := range exec {
				exec[k] = min(exec[k], 0)
			}
		}
		if _, err := out.AddTask(task.Name, exec, task.Energy, task.Deadline); err != nil {
			return nil, err
		}
	}
	for _, e := range g.Edges() {
		if _, err := out.AddEdge(e.Src, e.Dst, e.Volume); err != nil {
			return nil, err
		}
	}
	return out, nil
}
