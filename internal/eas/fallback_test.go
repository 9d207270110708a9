package eas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/verify/workloadgen"
)

// TestDeadlineFirstGolden pins the feasibility fallback's seed schedule,
// which the harness golden digests reach on one input only: the
// SHA-256 of deadlineFirstSchedule's WriteJSON output and probe count
// over workloadgen.Golden(), under the exact and the naive contention
// model, on one builder reused across every input.
func TestDeadlineFirstGolden(t *testing.T) {
	inputs, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]string{
		false: "e8c1ea10ef27d65a52be3d7b73e81bfaad2647b6bb46c55dd8dbea868a42b758",
		true:  "1731c1d0d06af62357526fb013f1ef65b8f63a6aff314b995091a2d03352468f",
	}
	ws := new(sched.Builder)
	for _, naive := range []bool{false, true} {
		h := sha256.New()
		for _, in := range inputs {
			s, err := deadlineFirstSchedule(ws, in.Graph, topoOrder(t, in.Graph), in.ACG, "eas", Options{NaiveContention: naive})
			if err != nil {
				t.Fatalf("%s (naive=%v): %v", in.Name, naive, err)
			}
			if err := s.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "probes=%d\n", s.Probes)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[naive] {
			t.Errorf("naive=%v: deadline-first digest %s, want %s", naive, got, want[naive])
		}
	}
}

// TestDisableTightenRetry pins the paper-exact switch over
// workloadgen.Golden(). With DisableTightenRetry set, EAS runs pass 0
// alone: no later pass and no fallback span is traced, and RefineStats
// stays zero, also on the input where the default run's fallback fires.
// On every input whose pass 0 is feasible the result is the default's:
// the same schedule (sched.Diff), repair stats and probe counts.
func TestDisableTightenRetry(t *testing.T) {
	inputs, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	solve := func(in workloadgen.Workload, opts Options) (*Result, string) {
		var trace bytes.Buffer
		opts.Telemetry = telemetry.NewCollector(telemetry.NewJSONLSink(&trace))
		r, err := Schedule(in.Graph, in.ACG, opts)
		if err != nil {
			t.Fatalf("%s (%+v): %v", in.Name, opts, err)
		}
		return r, trace.String()
	}
	const fallback, pass1 = `"fallback:deadline-first+refine"`, `"pass 1 `
	fired, same := 0, 0
	for _, in := range inputs {
		def, defTrace := solve(in, Options{})
		exact, exactTrace := solve(in, Options{DisableTightenRetry: true})
		if strings.Contains(defTrace, fallback) {
			fired++
		}
		if strings.Contains(exactTrace, fallback) || strings.Contains(exactTrace, pass1) {
			t.Errorf("%s: DisableTightenRetry ran more than pass 0", in.Name)
		}
		if exact.RefineStats != (RefineStats{}) {
			t.Errorf("%s: DisableTightenRetry reports refine stats %+v", in.Name, exact.RefineStats)
		}
		if !exact.Schedule.Feasible() {
			continue
		}
		same++
		if d := sched.Diff(def.Schedule, exact.Schedule); d != "" {
			t.Errorf("%s: pass 0 is feasible, yet DisableTightenRetry changes the schedule: %s", in.Name, d)
		}
		if def.RepairStats != exact.RepairStats || def.Probes != exact.Probes || def.ProbeReuses != exact.ProbeReuses {
			t.Errorf("%s: pass 0 is feasible, yet DisableTightenRetry changes the work: repair %+v vs %+v, probes %d/%d vs %d/%d",
				in.Name, def.RepairStats, exact.RepairStats, def.Probes, def.ProbeReuses, exact.Probes, exact.ProbeReuses)
		}
	}
	if fired == 0 || same == 0 {
		t.Errorf("the default fallback fired on %d inputs and pass 0 was feasible on %d; want both > 0", fired, same)
	}
}
