package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestSeedDeterminesOutcome runs every workload twice with one seed and
// once with another: one seed must give identical schedule digests,
// energy ratios and deadline-miss ratios, and another seed other
// digests.
func TestSeedDeterminesOutcome(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*result
			for _, seed := range []int64{7, 7, 8} {
				res, err := runSmall(t, w.name, smallConfig(seed, false, nil))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				runs = append(runs, res)
			}
			a, b, c := runs[0], runs[1], runs[2]
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("seed 7 digests %q and %q differ", a.digest, b.digest)
			}
			if x, y := a.e2e["energy_ratio"], b.e2e["energy_ratio"]; x != y {
				t.Errorf("seed 7 energy_ratio: %v then %v", x, y)
			}
			if x, y := a.layers["sched.deadline_miss_ratio"], b.layers["sched.deadline_miss_ratio"]; x != y {
				t.Errorf("seed 7 sched.deadline_miss_ratio: %v then %v", x, y)
			}
			if a.e2e["energy_ratio"] < 1 {
				t.Errorf("energy_ratio %v, want >= 1: no schedule beats the bound", a.e2e["energy_ratio"])
			}
			if c.digest == a.digest {
				t.Errorf("seeds 7 and 8 share digest %s", a.digest)
			}
		})
	}
}

// corrupt returns middleware that flips one digit of the first task's
// end time inside each served schedule, on every response or, with
// repeatsOnly, on every response but a graph's first.
func corrupt(repeatsOnly bool) func(http.Handler) http.Handler {
	var mu sync.Mutex
	seen := make(map[string]bool)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if r.URL.Path == "/v1/schedule" && rec.Code == http.StatusOK {
				digest := rec.Header().Get("X-Nocsched-Digest")
				mu.Lock()
				flip := !repeatsOnly || seen[digest]
				seen[digest] = true
				mu.Unlock()
				if i := bytes.Index(body, []byte(`"end": `)); flip && i >= 0 {
					d := &body[i+len(`"end": `)]
					*d = '1' + (*d-'0')%9 // another non-zero digit
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

// TestCorruptedScheduleFailsTheRun checks the correctness gates: a
// schedule byte flipped on every response fails the reference
// comparison, and one flipped only on repeats fails the
// response-consistency check. Either way no result is produced.
func TestCorruptedScheduleFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		repeatsOnly bool
		want        string
	}{
		{false, "graph "},
		{true, "responses diverged"},
	} {
		_, err := runSmall(t, "serve-hit", smallConfig(1, false, corrupt(c.repeatsOnly)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("repeatsOnly=%v: err = %v, want one containing %q", c.repeatsOnly, err, c.want)
		}
	}
}
