package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/mapping"
	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// goldenDigests pins the SHA-256 of every scheduler's WriteJSON output
// over workloadgen.Golden(), concatenated in corpus order. A change to
// any placement, transaction slot or tie-break anywhere in EAS, EDF,
// DLS or the mapping baseline changes the digest, so refactors of the
// probe and commit paths must leave these constants untouched. Besides
// the three harness schedulers it pins EAS under the naive contention
// model, EAS-base (Step 2 alone) and map-then-schedule.
var goldenDigests = map[string]string{
	"eas":       "d372ee8ccb9c1040fdfa5671b4cd1fcb79fb4296fba788471e0b6e1d999fe326",
	"edf":       "a886924efe6d556a2c3c211856fbc2448111b3a314218930261b8d398c4b78e1",
	"dls":       "628d5334e871dcc0718abdb6ceccfddcc9ff1dcba3d99c2784b2fd77ecb11780",
	"eas-naive": "b62170be0674ef899b256655908c7ce614a5f19c15be0455acb7529a437e423c",
	"eas-base":  "eae44942a3da7bf69e96e23ff64582bfec75f498883a6854fe5dbafa6ba54049",
	"map+ls":    "a29fc692c733082236143a21c57736844d625bb4c29a83da9ab6d2cc67f3fe1d",
}

// easGolden returns a golden solver running EAS with opts.
func easGolden(opts eas.Options) func(*ctg.Graph, *energy.ACG) (*sched.Schedule, error) {
	return func(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
		r, err := eas.Schedule(g, acg, opts)
		if err != nil {
			return nil, err
		}
		return r.Schedule, nil
	}
}

// TestGoldenScheduleDigests pins the schedules every algorithm emits.
func TestGoldenScheduleDigests(t *testing.T) {
	inputs, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	solve := map[string]func(*ctg.Graph, *energy.ACG) (*sched.Schedule, error){
		"eas":       easGolden(eas.Options{}),
		"edf":       edf.Schedule,
		"dls":       dls.Schedule,
		"eas-naive": easGolden(eas.Options{NaiveContention: true}),
		"eas-base":  easGolden(eas.Options{DisableRepair: true}),
		"map+ls": func(g *ctg.Graph, acg *energy.ACG) (*sched.Schedule, error) {
			r, err := mapping.Map(g, acg, mapping.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
	}
	var algs []string
	for alg := range goldenDigests {
		algs = append(algs, alg)
	}
	slices.Sort(algs)
	for _, alg := range algs {
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
