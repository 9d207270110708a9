package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// goldenDigests pins the SHA-256 of every scheduler's WriteJSON output
// over workloadgen.Golden(), concatenated in corpus order. A change to
// any placement, transaction slot or tie-break anywhere in EAS, EDF or
// DLS changes the digest, so refactors of the probe and commit paths
// must leave these constants untouched.
var goldenDigests = map[string]string{
	"eas": "d372ee8ccb9c1040fdfa5671b4cd1fcb79fb4296fba788471e0b6e1d999fe326",
	"edf": "a886924efe6d556a2c3c211856fbc2448111b3a314218930261b8d398c4b78e1",
	"dls": "628d5334e871dcc0718abdb6ceccfddcc9ff1dcba3d99c2784b2fd77ecb11780",
}

// TestGoldenScheduleDigests pins the schedules every algorithm emits.
func TestGoldenScheduleDigests(t *testing.T) {
	inputs, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	solve := map[string]func(*ctg.Graph, *energy.ACG) (*sched.Schedule, error){
		"eas": func(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
			r, err := eas.Schedule(g, acg, eas.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
		"edf": edf.Schedule,
		"dls": dls.Schedule,
	}
	for _, alg := range Schedulers {
		t.Run(alg, func(t *testing.T) {
			h := sha256.New()
			for _, in := range inputs {
				s, err := solve[alg](in.Graph, in.ACG)
				if err != nil {
					t.Fatalf("%s: %v", in.Name, err)
				}
				if err := s.WriteJSON(h); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[alg] {
				t.Errorf("%s schedule digest %s, want %s", alg, got, goldenDigests[alg])
			}
		})
	}
}
