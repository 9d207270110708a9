package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/serve"
	"nocsched/internal/tgff"
)

// platform is the benchmark's one target: schedd's default 4x4
// heterogeneous XY mesh.
type platform struct {
	spec noc.PlatformSpec
	noc  *noc.Platform
	acg  *energy.ACG
}

func newPlatform() (*platform, error) {
	spec := serve.DefaultPlatform()
	p, err := spec.Build()
	if err != nil {
		return nil, err
	}
	acg, err := energy.BuildACG(p, energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	return &platform{spec: spec, noc: p, acg: acg}, nil
}

// graphSeed derives graph i's generator seed from the run seed. Seeds
// of different runs are 2^32 apart, so runs share no graph.
func graphSeed(seed int64, i int) int64 { return seed<<32 + int64(i) }

// graph generates graph i of workload w: the TGFF suite parameters of
// w's category (cycling through the suite's ten shapes), resized and
// re-deadlined as w asks. Every graph of a run is distinct.
func (w workload) graph(p *platform, seed int64, i int) (*ctg.Graph, error) {
	params := tgff.SuiteParams(w.category, i%tgff.SuiteSize, p.noc)
	params.Name = fmt.Sprintf("%s-%d", w.name, i)
	params.Seed = graphSeed(seed, i)
	if w.tasks > 0 {
		params.NumTasks = w.tasks
	}
	if w.laxity > 0 {
		params.DeadlineLaxity = w.laxity
	}
	return tgff.Generate(params)
}

func (w workload) algorithm(i int) string { return w.algorithms[i%len(w.algorithms)] }

// reference solves one instance serially on a fresh workspace, with no
// shared route plan or builder reuse: the independent oracle that served
// and engine schedules must equal under sched.Diff.
func reference(g *ctg.Graph, acg *energy.ACG, algorithm string) (*sched.Schedule, error) {
	ws := sched.NewWorkspace(1, false)
	switch algorithm {
	case "eas":
		r, err := eas.ScheduleWith(ws, g, acg, eas.Options{})
		if err != nil {
			return nil, err
		}
		return r.Schedule, nil
	case "edf":
		return edf.ScheduleWith(ws, g, acg, edf.Options{})
	case "dls":
		return dls.ScheduleWith(ws, g, acg)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algorithm)
}

// quality accumulates the outcome metrics over a fixed set of
// schedules: energy relative to each graph's compute-energy lower
// bound, and the share of schedules with a deadline miss.
type quality struct {
	n, missed int
	ratioSum  float64
}

func (q *quality) add(s *sched.Schedule) {
	q.n++
	q.ratioSum += s.TotalEnergy() / energyBound(s.Graph)
	if !s.Feasible() {
		q.missed++
	}
}

func (q *quality) energyRatio() float64 { return ratio(q.ratioSum, float64(q.n)) }
func (q *quality) missRatio() float64   { return ratio(float64(q.missed), float64(q.n)) }

// energyBound is the Eq. 3 energy of a graph with every task on its
// cheapest capable PE and no communication, which no schedule can
// undercut. Dividing by it removes most of the difference in energy
// between the graphs of one seed and another, so the ratio tracks the
// schedulers' quality rather than the draw.
func energyBound(g *ctg.Graph) float64 {
	sum := 0.0
	for _, t := range g.Tasks() {
		best := math.Inf(1)
		for k, e := range t.Energy {
			if t.RunnableOn(k) {
				best = min(best, e)
			}
		}
		sum += best
	}
	return sum
}

// scheduleDigest hashes the schedules' sched.WriteJSON bytes in order:
// two runs with one seed must produce the same digest.
func scheduleDigest(ss []*sched.Schedule) (string, error) {
	h := sha256.New()
	for _, s := range ss {
		if err := s.WriteJSON(h); err != nil {
			return "", err
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
