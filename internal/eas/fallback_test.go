package eas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// TestDeadlineFirstGolden pins the feasibility fallback's seed schedule,
// which the harness golden digests reach on one input only: the
// SHA-256 of deadlineFirstSchedule's WriteJSON output and probe count
// over workloadgen.Golden(), under the exact and the naive contention
// model, on one workspace reused across every input.
func TestDeadlineFirstGolden(t *testing.T) {
	inputs, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]string{
		false: "e8c1ea10ef27d65a52be3d7b73e81bfaad2647b6bb46c55dd8dbea868a42b758",
		true:  "1731c1d0d06af62357526fb013f1ef65b8f63a6aff314b995091a2d03352468f",
	}
	ws := sched.NewWorkspace(1, false)
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
