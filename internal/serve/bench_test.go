package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
	"nocsched/internal/verify"
)

// BenchmarkMissPath times each layer of one schedd cache miss, on the
// serve-zipf request shape: a 100-task Category I graph on the default
// 4x4 platform (a body of about 47 KB), solved by EAS. The layers are
// the handler's decode, the workload digest, the EAS solve on a reused
// workspace, the oracle check and the response render.
func BenchmarkMissPath(b *testing.B) {
	spec := DefaultPlatform()
	platform, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Name = "miss-path"
	p.Seed = 1
	p.NumTasks = 100
	g, err := tgff.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(Request{Graph: g, Platform: &spec, Algorithm: AlgoEAS})
	if err != nil {
		b.Fatal(err)
	}
	ws := sched.NewWorkspace(1, false)
	res, err := eas.ScheduleWith(ws, g, acg, eas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := res.Schedule
	rep := verify.Check(s)
	digest, err := WorkloadDigest(AlgoEAS, spec, g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req Request
			if err := decodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := WorkloadDigest(AlgoEAS, spec, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eas.ScheduleWith(ws, g, acg, eas.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			verify.Check(s)
		}
	})
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		r := &batch.Result{Schedule: s, Latency: time.Millisecond}
		for i := 0; i < b.N; i++ {
			if _, err := renderEntry(digest, r, rep); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHitPath times one schedd cache hit answered from the body
// memo, on the serve-hit request shape: a 250-task Category I graph on
// the default 4x4 platform (a body of about 116 KB), sent through
// Handler() to an httptest recorder. The untimed first send solves and
// fills the memo, so every timed request is a memo hit.
func BenchmarkHitPath(b *testing.B) {
	spec := DefaultPlatform()
	platform, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Name = "hit-path"
	p.Seed = 1
	p.NumTasks = 250
	g, err := tgff.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(Request{Graph: g, Platform: &spec, Algorithm: AlgoEAS})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Workers: 1, Telemetry: telemetry.NewCollector(nil)})
	s.MarkReady()
	b.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	send := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	if rec := send(); rec.Code != http.StatusOK {
		b.Fatalf("first send: status %d: %s", rec.Code, rec.Body)
	}
	memoBefore := counterOf(s, MetricBodyMemoHits)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := send(); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if n := counterOf(s, MetricBodyMemoHits) - memoBefore; n != int64(b.N) {
		b.Fatalf("%d of %d requests were memo hits", n, b.N)
	}
}
