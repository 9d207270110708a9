package batch_test

import (
	"context"
	"testing"

	"nocsched/internal/batch"
	"nocsched/internal/energy"
	"nocsched/internal/serve"
)

// BenchmarkBatchSetup times everything before a batch's first
// instance can run, the sequence nocbench reports as setup_s: build
// the service's default platform and its ACG, create a two-worker
// engine, open a stream, then close and drain it.
func BenchmarkBatchSetup(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		spec := serve.DefaultPlatform()
		p, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := energy.BuildACG(p, energy.DefaultModel()); err != nil {
			b.Fatal(err)
		}
		st := batch.New(batch.Options{Workers: 2}).Stream(ctx)
		st.Close()
		for range st.Results() {
		}
	}
}
