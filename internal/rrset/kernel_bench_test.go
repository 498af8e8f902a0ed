package rrset

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// BenchmarkSampleKernel measures the reverse-BFS sampling kernel alone on
// the dblp-like and epinions-like tiny presets under weighted-cascade
// probabilities, at 1 and 2 pool workers. Besides ns/op (per 1024 sets)
// it reports sets/s and ns per examined arc; a set's width w(R) is
// exactly the number of in-arcs the BFS examines, so the arc count comes
// from the stream itself.
func BenchmarkSampleKernel(b *testing.B) {
	for _, name := range []string{"dblp", "epinions"} {
		ds, err := gen.ByName(name, gen.ScaleTiny, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		g := ds.Graph
		sp := NewSampleProbs(g, topic.NewWeightedCascade(g).EdgeProbs(topic.Distribution{1}))
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				st := NewPool(g, PoolOptions{Workers: workers}).NewStream(sp, 1)
				const setsPerOp = 1024
				var arcs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.SampleN(setsPerOp, func(_ []int32, width int64) { arcs += width })
				}
				elapsed := b.Elapsed()
				b.ReportMetric(float64(b.N*setsPerOp)/elapsed.Seconds(), "sets/s")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(arcs), "ns/arc")
			})
		}
	}
}
