package rrset

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// BenchmarkSampleKernel measures the reverse-BFS sampling kernel alone on
// the tiny dblp-like and epinions-like presets under weighted-cascade
// probabilities (every node's in-arcs share one p: the skip path), on
// dblp-deltas (re-weighted hubs: the mixed path) and on the tiny
// flixster-like preset under TIC probabilities (mostly distinct in-arcs:
// mostly the per-arc path), at 1 and 2 pool workers. Besides ns/op (per
// 1024 sets) it reports sets/s and ns per in-arc of a member, the arcs
// the per-arc path examines: a set's width w(R), summed from its
// members' in-degrees in the yield.
func BenchmarkSampleKernel(b *testing.B) {
	for _, name := range []string{"dblp", "epinions", "dblp-deltas", "flixster"} {
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
// dblp-deltas is tiny dblp under weighted cascade with 1,200 random arcs
// re-weighted into [0.01, 0.30] and 300 set to 0, the kind of graph a run
// of SetProbs deltas leaves: most of its hubs keep 1/d on most in-arcs.
func kernelPreset(tb testing.TB, name string) (*graph.Graph, []float32) {
	rng := xrand.New(1)
	base, deltas := strings.CutSuffix(name, "-deltas")
	ds, err := gen.ByName(base, gen.ScaleTiny, rng)
	if err != nil {
		tb.Fatal(err)
	}
	g := ds.Graph
	if ds.ProbModel == gen.ProbWC {
		probs := topic.NewWeightedCascade(g).EdgeProbs(topic.Distribution{1})
		if deltas {
			for i := range 1500 {
				e := rng.Uint64n(uint64(g.NumEdges()))
				if i < 1200 {
					probs[e] = float32(0.01 + 0.29*rng.Float64())
				} else {
					probs[e] = 0
				}
			}
		}
		return g, probs
	}
	model := topic.NewTICRandom(g, topic.DefaultTICParams(), rng.Split())
	return g, model.EdgeProbs(topic.Peaked(model.NumTopics(), 0, 0.91))
}
