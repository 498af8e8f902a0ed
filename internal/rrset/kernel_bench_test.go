package rrset

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// BenchmarkSampleKernel measures the reverse-BFS sampling kernel alone on
// the tiny dblp-like and epinions-like presets under weighted-cascade
// probabilities (every node's in-arcs share one p: the skip path) and on
// the tiny flixster-like preset under TIC probabilities (mixed in-arcs:
// the per-arc path), at 1 and 2 pool workers. Besides ns/op (per 1024
// sets) it reports sets/s and ns per in-arc of a member, the arcs the
// per-arc path examines: a set's width w(R), summed from its members'
// in-degrees in the yield.
func BenchmarkSampleKernel(b *testing.B) {
	for _, name := range []string{"dblp", "epinions", "flixster"} {
		g, probs := kernelPreset(b, name)
		sp := NewSampleProbs(g, probs)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				st := NewPool(g, PoolOptions{Workers: workers}).NewStream(sp, 1)
				const setsPerOp = 1024
				var arcs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.SampleN(setsPerOp, func(nodes []int32) { arcs += width(g, nodes) })
				}
				elapsed := b.Elapsed()
				b.ReportMetric(float64(b.N*setsPerOp)/elapsed.Seconds(), "sets/s")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(arcs), "ns/arc")
			})
		}
	}
}

// kernelPreset builds a tiny preset graph and its arc probabilities the
// way the dataset registry does: weighted cascade for the WC presets,
// random TIC with the default parameters for the TIC ones, under the
// peaked topic mix the competing-ads workload gives its first ad.
func kernelPreset(tb testing.TB, name string) (*graph.Graph, []float32) {
	rng := xrand.New(1)
	ds, err := gen.ByName(name, gen.ScaleTiny, rng)
	if err != nil {
		tb.Fatal(err)
	}
	g := ds.Graph
	if ds.ProbModel == gen.ProbWC {
		return g, topic.NewWeightedCascade(g).EdgeProbs(topic.Distribution{1})
	}
	model := topic.NewTICRandom(g, topic.DefaultTICParams(), rng.Split())
	return g, model.EdgeProbs(topic.Peaked(model.NumTopics(), 0, 0.91))
}
