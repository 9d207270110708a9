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
	// The 2x2 encoder goes first, so a workspace reused in case order
	// grows from 2x2 to 4x4 (its prober's overlay with it), shrinks
	// back to 2x2 and grows to 3x3.
	enc := len(cases) - 3
	return append(append([]diffCase{cases[enc]}, cases[:enc]...), cases[enc+1:]...)
}

// The differential tests below solve every suite instance twice: once
// fresh, and once on one workspace reused across all cases in order, so
// the reused builder crosses the 2x2 -> 4x4 -> 2x2 -> 3x3 platform
// changes as well as same-platform resets. The two schedules must be bit-identical
// — same placements, same transaction slots, exactly equal total energy
// — after the same numbers of probes and probe reuses.

// TestEASDifferential covers EAS (Steps 1-3 with every pass and the
// fallback sharing the workspace).
func TestEASDifferential(t *testing.T) {
	ws := sched.NewWorkspace(1, false)
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := Schedule(tc.g, tc.acg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ScheduleWith(ws, tc.g, tc.acg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkReuse(t, fresh.Schedule, reused.Schedule)
			// The result totals also count the passes and the fallback
			// that did not produce the schedule.
			if fresh.Probes != reused.Probes || fresh.ProbeReuses != reused.ProbeReuses {
				t.Errorf("solve totals diverge: fresh %d probes %d reuses, reused %d probes %d reuses",
					fresh.Probes, fresh.ProbeReuses, reused.Probes, reused.ProbeReuses)
			}
		})
	}
}

// TestEDFDifferential covers the same property for the EDF baseline.
func TestEDFDifferential(t *testing.T) {
	ws := sched.NewWorkspace(1, false)
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := edf.Schedule(tc.g, tc.acg)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := edf.ScheduleWith(ws, tc.g, tc.acg, edf.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkReuse(t, fresh, reused)
		})
	}
}

// TestDLSDifferential covers the same property for the DLS baseline.
func TestDLSDifferential(t *testing.T) {
	ws := sched.NewWorkspace(1, false)
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := dls.Schedule(tc.g, tc.acg)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := dls.ScheduleWith(ws, tc.g, tc.acg)
			if err != nil {
				t.Fatal(err)
			}
			checkReuse(t, fresh, reused)
		})
	}
}

// checkReuse requires a reused-workspace schedule to match the fresh
// one bit for bit, probe and reuse counts included.
func checkReuse(t *testing.T, fresh, reused *sched.Schedule) {
	t.Helper()
	if d := sched.Diff(fresh, reused); d != "" {
		t.Errorf("fresh vs reused workspace: %s", d)
	}
	if fresh.Probes != reused.Probes {
		t.Errorf("probe counts diverge: fresh %d, reused %d", fresh.Probes, reused.Probes)
	}
	if fresh.ProbeReuses != reused.ProbeReuses {
		t.Errorf("probe reuse counts diverge: fresh %d, reused %d", fresh.ProbeReuses, reused.ProbeReuses)
	}
}
