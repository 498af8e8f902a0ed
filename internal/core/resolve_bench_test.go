package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/incentive"
)

// BenchmarkSharedResolve times a warm ShareSamples re-solve: TI-CSRM on
// the tiny dblp preset (h=4, ε=0.3, two sampling workers), the reader
// solve of a server whose RR universes are already cached. One cold
// solve fills the engine's universe cache off the clock; every timed
// re-solve of the same seed then draws no new RR sets, so its time is
// the coverage rebuild (attaching a prefix view per ad and re-syncing
// it at every Eq. 10 growth) plus greedy selection. Each view attaches
// at the whole cached sample, so NewViewPrefix seeds its counts from the
// index degrees.
func BenchmarkSharedResolve(b *testing.B) {
	benchResolve(b, 0.3, 0.3)
}

// BenchmarkSharedResolveShortPrefix is the same warm re-solve over a
// cached sample that a cold ε=0.15 solve grew about four times past
// what the timed ε=0.3 solves need: each view attaches at a prefix
// shorter than the rest of the sample, so NewViewPrefix walks that
// prefix forward instead of seeding from the degrees.
func BenchmarkSharedResolveShortPrefix(b *testing.B) {
	benchResolve(b, 0.15, 0.3)
}

func benchResolve(b *testing.B, coldEps, warmEps float64) {
	wb, err := eval.NewWorkbench("dblp", eval.Params{Scale: gen.ScaleTiny, Seed: 1, H: 4, SampleWorkers: 2, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	p := wb.Problem(incentive.Linear, 0.2)
	solve := func(eps float64) *core.Stats {
		opt := core.Options{Mode: core.ModeCostSensitive, Epsilon: eps, Seed: 7, ShareSamples: true}
		_, stats, err := wb.Engine().Solve(context.Background(), p, opt)
		if err != nil {
			b.Fatal(err)
		}
		return stats
	}
	solve(coldEps)
	want := solve(warmEps).TotalRRSets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if warm := solve(warmEps); warm.TotalRRSets != want {
			b.Fatalf("warm re-solve saw %d RR sets, first %d", warm.TotalRRSets, want)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/solve")
}
