// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5) at reduced scale, plus micro-benchmarks of the substrates.
// The experiment-to-bench mapping lives in DESIGN.md §5; the cmd/rmbench
// binary runs the same drivers with full grids and configurable scale.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// benchParams keeps each driver invocation in the hundreds-of-milliseconds
// range so the full bench suite completes on a laptop.
func benchParams() eval.Params {
	return eval.Params{
		Scale:         gen.ScaleTiny,
		Seed:          1,
		H:             4,
		Epsilon:       0.3,
		MaxThetaPerAd: 30000,
		MCEvalRuns:    300,
		SingletonRuns: 100,
		Workers:       2,
		AlphaPoints:   2,
	}
}

// ---- Table 1 ---------------------------------------------------------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.DatasetStats(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 2 ---------------------------------------------------------------

func BenchmarkTable2BudgetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.BudgetStats(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 3 ---------------------------------------------------------------

func BenchmarkTable3Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.ScalabilityAdvertisers(context.Background(), "dblp", []int{1, 2}, 10_000, benchParams(), nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.MemoryTable(points)
	}
}

// ---- Figure 1 --------------------------------------------------------------

func BenchmarkFig1Tightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig1Report(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 2 and 3 -------------------------------------------------------

func BenchmarkFig2RevenueVsAlpha(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := eval.QualitySweep(context.Background(),
			[]string{"epinions"},
			[]incentive.Kind{incentive.Linear},
			eval.PaperAlgorithms(),
			params, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RevenueVsAlphaTable(cells, eval.PaperAlgorithms())
	}
}

func BenchmarkFig3SeedCostVsAlpha(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := eval.QualitySweep(context.Background(),
			[]string{"epinions"},
			[]incentive.Kind{incentive.Superlinear},
			eval.PaperAlgorithms(),
			params, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.SeedCostVsAlphaTable(cells, eval.PaperAlgorithms())
	}
}

// ---- Figure 4 --------------------------------------------------------------

func BenchmarkFig4WindowTradeoff(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		points, err := eval.WindowTradeoff(context.Background(), "epinions", []float64{0.2}, []int{1, 16, 0}, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.WindowTradeoffTable(points)
	}
}

// ---- Figure 5 --------------------------------------------------------------

func BenchmarkFig5RuntimeVsAdvertisers(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		points, err := eval.ScalabilityAdvertisers(context.Background(), "dblp", []int{1, 2, 4}, 10_000, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RuntimeTable(points, "advertisers")
	}
}

func BenchmarkFig5RuntimeVsBudget(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		points, err := eval.ScalabilityBudget(context.Background(), "dblp", []float64{5_000, 10_000}, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RuntimeTable(points, "budget")
	}
}

// ---- Ablations (design-choice benches called out in DESIGN.md) -------------

// BenchmarkAblationCompetition measures the cost of scoring allocations
// under the hard-competition propagation model (future-work item iii).
func BenchmarkAblationCompetition(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := eval.CompetitionAblation(context.Background(), "epinions", 0.3, params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharing measures the memory/time effect of sharing RR
// universes across pure-competition ads (future-work item i).
func BenchmarkAblationSharing(b *testing.B) {
	params := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := eval.SharingAblation(context.Background(), "epinions", []int{2, 4}, params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindow compares TI-CSRM selection cost across window
// sizes (the Figure 4 design knob) on a single problem instance.
func BenchmarkAblationWindow(b *testing.B) {
	rng := xrand.New(8)
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	h := 4
	ads := topic.CompetingAds(h, 1, rng)
	topic.UniformBudgets(ads, 100, 1)
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, h)
	for i := range incs {
		incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
	}
	p := &core.Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
	for _, w := range []int{1, 64, 0} {
		name := "w=full"
		if w > 0 {
			name = "w=" + itoa(w)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := core.NewEngine(p.Graph, p.Model, core.EngineOptions{})
				if _, _, err := eng.Solve(context.Background(), p, core.Options{
					Mode:    core.ModeCostSensitive,
					Epsilon: 0.3, Seed: 9, Window: w, MaxThetaPerAd: 20000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	return fmt.Sprintf("%d", v)
}

// ---- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkRRSetSampling(b *testing.B) {
	rng := xrand.New(2)
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	s := rrset.NewSampler(g, model.EdgeProbs(topic.Distribution{1}), rng.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

// BenchmarkParallelSampling compares RR-set generation throughput across
// worker-pool sizes on the benchmark graph. workers=1 is the
// sequential-identical baseline; the sets/sec metric is what rmbench
// reports, so BENCH_*.json runs can track the multicore speedup. On a
// single-core machine the multi-worker variants only measure pool
// overhead.
func BenchmarkParallelSampling(b *testing.B) {
	rng := xrand.New(2)
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	probs := rrset.NewSampleProbs(g, model.EdgeProbs(topic.Distribution{1}))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			stream := rrset.NewPool(g, rrset.PoolOptions{Workers: w}).NewStream(probs, 7)
			b.ResetTimer()
			start := time.Now()
			stream.SampleN(b.N, func([]int32) {})
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "sets/sec")
		})
	}
}

// BenchmarkParallelCoverageFill measures the end-to-end path the engine
// drives: parallel sampling plus single-goroutine merge indexing into a
// Universe.
func BenchmarkParallelCoverageFill(b *testing.B) {
	rng := xrand.New(2)
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	probs := rrset.NewSampleProbs(g, model.EdgeProbs(topic.Distribution{1}))
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			stream := rrset.NewPool(g, rrset.PoolOptions{Workers: w}).NewStream(probs, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := rrset.NewUniverse(g.NumNodes())
				u.AddFromParallel(stream, 10_000)
			}
		})
	}
}

// BenchmarkArenaSampling pins the arena layout's memory win: filling a
// coverage store with θ RR sets — an arena-backed Universe plus one View
// over it — versus the pre-refactor layout (one heap slice per set plus
// per-node growable index slices). Each arm reports its store's heap
// footprint as MB-footprint — the quantity Stats.RRMemoryBytes and
// Table 3 aggregate — alongside allocs/op; the legacy arm's footprint counts its slice
// headers, which are real heap bytes the flat layout does not spend. The
// workload is the standard IC benchmark — a uniform random digraph with
// p = 0.1 arcs (subcritical, so RR sets stay small, the regime where a
// per-set-allocation layout pays the largest fixed overhead per set).
func BenchmarkArenaSampling(b *testing.B) {
	rng := xrand.New(12)
	const nNodes, nEdges = 100_000, 600_000
	gb := graph.NewBuilder(nNodes, nEdges)
	for i := 0; i < nEdges; i++ {
		u, v := rng.Int31n(nNodes), rng.Int31n(nNodes)
		for u == v {
			v = rng.Int31n(nNodes)
		}
		gb.AddEdge(u, v)
	}
	g := gb.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.1
	}
	sp := rrset.NewSampleProbs(g, probs)
	const theta = 200_000
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		pool := rrset.NewPool(g, rrset.PoolOptions{Workers: 1})
		var foot int64
		for i := 0; i < b.N; i++ {
			u := rrset.NewUniverse(g.NumNodes())
			u.AddFromParallel(pool.NewStream(sp, 7), theta)
			foot = u.MemoryFootprint() + rrset.NewView(u).MemoryFootprint()
		}
		b.ReportMetric(float64(foot)/(1<<20), "MB-footprint")
	})
	b.Run("legacy-layout", func(b *testing.B) {
		b.ReportAllocs()
		var foot int64
		for i := 0; i < b.N; i++ {
			foot = legacyLayoutFill(g, probs, theta)
		}
		b.ReportMetric(float64(foot)/(1<<20), "MB-footprint")
	})
}

// legacyLayoutFill reproduces the pre-arena storage layout and returns
// its heap footprint: per-set slices, per-node index slices, the []bool
// tombstones and the covCount array, including the 24-byte slice headers
// the two [][]int32 tables spend per entry.
func legacyLayoutFill(g *graph.Graph, probs []float32, theta int) int64 {
	s := rrset.NewSampler(g, probs, xrand.New(7))
	sets := make([][]int32, 0, theta)
	nodeSets := make([][]int32, g.NumNodes())
	covCount := make([]int32, g.NumNodes())
	for i := 0; i < theta; i++ {
		set, _ := s.Sample()
		id := int32(len(sets))
		sets = append(sets, set)
		for _, v := range set {
			nodeSets[v] = append(nodeSets[v], id)
			covCount[v]++
		}
	}
	covered := make([]bool, len(sets))
	total := int64(cap(sets)) * 24
	for _, set := range sets {
		total += int64(cap(set)) * 4
	}
	total += int64(cap(nodeSets)) * 24
	for _, ns := range nodeSets {
		total += int64(cap(ns)) * 4
	}
	total += int64(len(covered))
	total += int64(len(covCount)) * 4
	return total
}

func BenchmarkCascadeSimulation(b *testing.B) {
	rng := xrand.New(3)
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	sim := cascade.NewSimulator(g, model.EdgeProbs(topic.Distribution{1}))
	seeds := []int32{0, 1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(seeds, rng)
	}
}

// BenchmarkSingletonSpreads is the Monte-Carlo singleton pass of a
// workbench build on the tiny epinions preset (the incentive tables'
// spreads): every node's 500 runs, on one worker.
func BenchmarkSingletonSpreads(b *testing.B) {
	src, err := dataset.Default.Open("epinions", gen.ScaleTiny, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := src.Dataset.Graph
	probs := src.Model.EdgeProbs(topic.Distribution{1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cascade.SingletonSpreads(g, probs, 500, 1, 1)
	}
}

// engineBenchProblem is the 4-ad TI-CSRM instance of the engine
// benchmarks, and engineBenchSolve one exclusive solve of it at a seed.
func engineBenchProblem() *core.Problem {
	rng := xrand.New(4)
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	h := 4
	ads := topic.CompetingAds(h, 1, rng)
	topic.UniformBudgets(ads, 100, 1)
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, h)
	for i := range incs {
		incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
	}
	return &core.Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

func engineBenchSolve(b *testing.B, eng *core.Engine, p *core.Problem, seed uint64) {
	if _, _, err := eng.Solve(context.Background(), p, core.Options{
		Mode:    core.ModeCostSensitive,
		Epsilon: 0.3, Seed: seed, MaxThetaPerAd: 20000,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTICSRM solves on a fresh Engine every iteration.
func BenchmarkEngineTICSRM(b *testing.B) {
	p := engineBenchProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineBenchSolve(b, core.NewEngine(p.Graph, p.Model, core.EngineOptions{}), p, uint64(i))
	}
}

// BenchmarkEngineWarmSolve solves on one long-lived Engine across
// seeds, after one warm-up solve: each exclusive solve refills the
// arenas the previous one released, so B/op is what a steady-state
// solve allocates.
func BenchmarkEngineWarmSolve(b *testing.B) {
	p := engineBenchProblem()
	eng := core.NewEngine(p.Graph, p.Model, core.EngineOptions{})
	engineBenchSolve(b, eng, p, 1<<32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineBenchSolve(b, eng, p, uint64(i))
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	rng := xrand.New(5)
	for i := 0; i < b.N; i++ {
		gen.RMAT(8192, 65536, gen.DefaultRMAT, rng)
	}
}
