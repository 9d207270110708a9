package eas

import (
	"fmt"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/msb"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/tgff"
)

// diffCase is one problem instance of the differential suite.
type diffCase struct {
	name string
	g    *ctg.Graph
	acg  *energy.ACG
}

// differentialCases builds the suite: 20 TGFF graphs (10 Category I +
// 10 Category II, shrunk from the paper's ~500 tasks to keep the test
// fast) and the three MSB multimedia workloads.
func differentialCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase

	platform, err := noc.NewHeterogeneousMesh(4, 4, noc.RouteXY, 100)
	if err != nil {
		t.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.Model{ESbit: 1, ELbit: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []tgff.Category{tgff.CategoryI, tgff.CategoryII} {
		for i := 0; i < 10; i++ {
			p := tgff.SuiteParams(cat, i, platform)
			p.NumTasks = 70 + i
			g, err := tgff.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, diffCase{
				name: fmt.Sprintf("%s-%02d", cat, i), g: g, acg: acg,
			})
		}
	}

	clip, err := msb.ClipByName("akiyo")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		build func() (*ctg.Graph, *noc.Platform, error)
	}{
		{"msb-encoder", func() (*ctg.Graph, *noc.Platform, error) {
			p, err := msb.DefaultPlatform2x2()
			if err != nil {
				return nil, nil, err
			}
			g, err := msb.Encoder(clip, p)
			return g, p, err
		}},
		{"msb-decoder", func() (*ctg.Graph, *noc.Platform, error) {
			p, err := msb.DefaultPlatform2x2()
			if err != nil {
				return nil, nil, err
			}
			g, err := msb.Decoder(clip, p)
			return g, p, err
		}},
		{"msb-integrated", func() (*ctg.Graph, *noc.Platform, error) {
			p, err := msb.DefaultPlatform3x3()
			if err != nil {
				return nil, nil, err
			}
			g, err := msb.Integrated(clip, p)
			return g, p, err
		}},
	} {
		g, p, err := w.build()
		if err != nil {
			t.Fatal(err)
		}
		macg, err := energy.BuildACG(p, energy.Model{ESbit: 1, ELbit: 1})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, diffCase{name: w.name, g: g, acg: macg})
	}
	return cases
}

// TestEASDifferential is the acceptance gate of the worker pool: on
// every suite instance, the sequential scheduler and the 4-worker
// scheduler must produce bit-identical schedules — same placements,
// same transaction slots, exactly equal total energy — after the same
// number of probes. Run under -race in CI, this also proves the
// concurrent probers never write shared state.
func TestEASDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := Schedule(tc.g, tc.acg, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Schedule(tc.g, tc.acg, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.Diff(seq.Schedule, par.Schedule); d != "" {
				t.Errorf("sequential vs 4-worker: %s", d)
			}
			if seq.Probes != par.Probes {
				t.Errorf("probe counts diverge: seq %d, par %d", seq.Probes, par.Probes)
			}
			if seq.ProbeReuses != par.ProbeReuses {
				t.Errorf("probe reuse counts diverge: seq %d, par %d", seq.ProbeReuses, par.ProbeReuses)
			}
		})
	}
}

// TestEDFDifferential covers the same property for the EDF baseline.
func TestEDFDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := edf.ScheduleOpts(tc.g, tc.acg, edf.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := edf.ScheduleOpts(tc.g, tc.acg, edf.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.Diff(seq, par); d != "" {
				t.Errorf("sequential vs 4-worker: %s", d)
			}
		})
	}
}

// TestDLSDifferential covers the same property for the DLS baseline,
// whose rows are one ready task each, probed on every PE.
func TestDLSDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := dls.ScheduleWith(sched.NewWorkspace(1, false), tc.g, tc.acg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := dls.ScheduleWith(sched.NewWorkspace(4, false), tc.g, tc.acg)
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.Diff(seq, par); d != "" {
				t.Errorf("sequential vs 4-worker: %s", d)
			}
			if seq.Probes != par.Probes {
				t.Errorf("probe counts diverge: seq %d, par %d", seq.Probes, par.Probes)
			}
			if seq.ProbeReuses != par.ProbeReuses {
				t.Errorf("probe reuse counts diverge: seq %d, par %d", seq.ProbeReuses, par.ProbeReuses)
			}
		})
	}
}
