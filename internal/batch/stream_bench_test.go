package batch

import (
	"context"
	"fmt"
	"testing"

	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

// benchStream is the fixed instance stream of the fresh-vs-engine
// benchmark pair: twelve distinct 100-task Category I suite graphs on
// one 3x3 heterogeneous mesh at laxity 1.3, cycling eas → edf → dls so
// consecutive instances cross both graph shapes and algorithms.
func benchStream(b *testing.B) []Instance {
	b.Helper()
	platform, err := noc.NewHeterogeneousMesh(3, 3, noc.RouteXY, 256)
	if err != nil {
		b.Fatal(err)
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	algos := []string{AlgoEAS, AlgoEDF, AlgoDLS}
	stream := make([]Instance, 12)
	for i := range stream {
		p := tgff.SuiteParams(tgff.CategoryI, i%tgff.SuiteSize, platform)
		p.Name = fmt.Sprintf("stream-%02d", i)
		p.Seed = 1 + int64(i)*131
		p.NumTasks = 100
		p.DeadlineLaxity = 1.3
		g, err := tgff.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		stream[i] = Instance{Name: p.Name, Graph: g, ACG: acg, Algorithm: algos[i%len(algos)]}
	}
	return stream
}

// BenchmarkStreamFresh schedules the stream through the plain serial
// entry points (eas/edf/dls.Schedule, via serialReference), a fresh
// builder and route plan per instance. Its ratio to
// BenchmarkStreamEngine is the builder and route-plan reuse gain.
func BenchmarkStreamFresh(b *testing.B) {
	stream := benchStream(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, inst := range stream {
			serialReference(b, inst)
		}
	}
}

// BenchmarkStreamEngine runs the same stream through a new one-worker
// engine per iteration, so every iteration pays its own cold plan
// cache and then reuses one builder across the stream.
func BenchmarkStreamEngine(b *testing.B) {
	stream := benchStream(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		results, err := New(Options{Workers: 1}).Run(context.Background(), stream)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Name, r.Err)
			}
		}
	}
}
