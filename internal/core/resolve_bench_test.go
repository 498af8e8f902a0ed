package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/xrand"
)

// BenchmarkSharedResolve times a warm ShareSamples re-solve: TI-CSRM on
// the tiny dblp preset (h=4, ε=0.3, two sampling workers), the reader
// solve of a server whose RR universes are already cached. One cold
// solve fills the engine's universe cache off the clock; every timed
// re-solve of the same seed then draws no new RR or KPT sets (its KPT
// estimates read the widths of the cached KPT sets), so its time is
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

// BenchmarkSharedSolveAfterDeltas times the reader of a server taking
// writes: TI-CSRM on the tiny dblp preset (h=4, ε=0.3, α=0.2, seed 7,
// ShareSamples, one sampling worker), each timed solve preceded by four
// untimed deltas. Every delta re-weights two base arcs and either adds
// an absent arc or removes one an earlier delta added, so each swap
// repairs the cached RR universe and leaves the KPT sets stale. The
// timed solve repairs those KPT sets once, replays the KPT estimates
// over them and rebuilds coverage on the repaired sample.
func BenchmarkSharedSolveAfterDeltas(b *testing.B) {
	wb, err := eval.NewWorkbench("dblp", eval.Params{Scale: gen.ScaleTiny, Seed: 1, H: 4, SampleWorkers: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := wb.Problem(incentive.Linear, 0.2)
	g0 := base.Graph
	// A private Engine: the workbench's is shared by every caller in the
	// process, and this benchmark mutates its graph.
	eng := core.NewEngine(g0, base.Model, core.EngineOptions{Workers: 1})
	opt := core.Options{Mode: core.ModeCostSensitive, Epsilon: 0.3, Seed: 7, ShareSamples: true}
	solve := func() {
		g, m := eng.Current()
		p := &core.Problem{Graph: g, Model: m, Ads: base.Ads, Incentives: base.Incentives}
		if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(11)
	var added []graph.Edge
	delta := func(i int) {
		d := &graph.Delta{}
		for k := 0; k < 2; k++ {
			u, v := g0.EdgeEndpoints(int64(rng.Uint64() % uint64(g0.NumEdges())))
			if k == 1 && u == d.SetProbs[0].U && v == d.SetProbs[0].V {
				continue
			}
			d.SetProbs = append(d.SetProbs, graph.ProbUpdate{U: u, V: v, P: float32(0.01 + 0.29*rng.Float64())})
		}
		g, _ := eng.Current()
		if i%2 == 0 || len(added) == 0 {
			for d.AddEdges == nil {
				e := graph.Edge{U: rng.Int31n(g.NumNodes()), V: rng.Int31n(g.NumNodes())}
				if e.U != e.V && !g.HasEdge(e.U, e.V) {
					d.AddEdges = []graph.Edge{e}
					added = append(added, e)
				}
			}
		} else {
			j := rng.Intn(len(added))
			d.RemoveEdges = []graph.Edge{added[j]}
			added[j] = added[len(added)-1]
			added = added[:len(added)-1]
		}
		if _, err := eng.ApplyDelta(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 4; k++ {
			delta(4*i + k)
		}
		b.StartTimer()
		solve()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/solve")
}
