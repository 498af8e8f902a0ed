package rrset

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// A stream grown in uneven SampleN calls emits RebuildUniverse's sets at
// every Workers and BatchSize: how a sample is split across calls and
// batches never shows in it.
func TestPoolStreamSingleWorkerBitIdentical(t *testing.T) {
	g := newTestGraph(xrand.New(51))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	const seed = 7
	grow := []int{1, 100, 37, 362}
	ref := NewPool(g, PoolOptions{Workers: 1}).RebuildUniverse(500, probs, seed)
	for _, po := range streamConfigs {
		st := NewPool(g, po).NewStream(probs, seed)
		par := NewUniverse(g.NumNodes())
		for _, n := range grow {
			par.AddFromParallel(st, n)
		}
		universesEqual(t, ref, par)
	}
}

// Streams sharing one pool must emit exactly what isolated per-ad pools
// emitted: scratch-slot scheduling (which IS timing-dependent) must not
// leak into the output. Sample h streams concurrently on one pool and
// compare each against a reference drawn from a private pool; `-race`
// guards the checkout path.
func TestPoolSharedStreamsMatchIsolatedPools(t *testing.T) {
	g := newTestGraph(xrand.New(52))
	probs := testProbs(g.NumEdges(), 0.1)
	const ads, count = 6, 400

	shared := NewPool(g, PoolOptions{Workers: 3, BatchSize: 32})
	univs := make([]*Universe, ads)
	var wg sync.WaitGroup
	for i := 0; i < ads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := NewUniverse(g.NumNodes())
			u.AddFromParallel(shared.NewStream(NewSampleProbs(g, probs), uint64(100+i)), count)
			univs[i] = u
		}(i)
	}
	wg.Wait()

	for i := 0; i < ads; i++ {
		private := NewPool(g, PoolOptions{Workers: 3, BatchSize: 32})
		ref := NewUniverse(g.NumNodes())
		ref.AddFromParallel(private.NewStream(NewSampleProbs(g, probs), uint64(100+i)), count)
		universesEqual(t, ref, univs[i])
	}
}

// Pool scratch is O(Workers·n): bounded by the slot count regardless of
// how many streams (ads) sample through it, with lazy materialization
// keeping untouched slots free.
func TestPoolScratchBoundedByWorkers(t *testing.T) {
	g := newTestGraph(xrand.New(53))
	n := int64(g.NumNodes())
	probs := testProbs(g.NumEdges(), 0.1)

	for _, workers := range []int{1, 4} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 16})
		if pool.MemoryFootprint() != 0 {
			t.Errorf("workers=%d: scratch materialized before first sample", workers)
		}
		var footprints []int64
		for ads := 0; ads < 8; ads++ {
			pool.NewStream(NewSampleProbs(g, probs), uint64(ads)).SampleN(200, func([]int32) {})
			footprints = append(footprints, pool.MemoryFootprint())
		}
		final := footprints[len(footprints)-1]
		// Upper bound: Workers visited arrays + a generous queue allowance.
		limit := int64(workers) * (8*n + 4*n)
		if final <= 0 || final > limit {
			t.Errorf("workers=%d: scratch footprint %d outside (0, %d]", workers, final, limit)
		}
		// Independent of stream count: after the first stream has touched
		// every slot, later streams must not add visited arrays — only
		// residual BFS-queue growth (well under one 8n visited array) is
		// tolerated.
		if grown := final - footprints[0]; grown >= 8*n {
			t.Errorf("workers=%d: scratch grew with ad count by %d bytes: %v",
				workers, grown, footprints)
		}
	}
}

// Interleaved SampleN calls across streams on one pool keep each stream's
// output identical to an uninterleaved run — the engine's growth pattern,
// where ads extend their samples in arbitrary order.
func TestPoolInterleavedGrowthDeterministic(t *testing.T) {
	g := newTestGraph(xrand.New(54))
	probs := testProbs(g.NumEdges(), 0.1)
	grow := []int{100, 37, 211}

	pool := NewPool(g, PoolOptions{Workers: 2, BatchSize: 16})
	a := NewUniverse(g.NumNodes())
	b := NewUniverse(g.NumNodes())
	sa := pool.NewStream(NewSampleProbs(g, probs), 5)
	sb := pool.NewStream(NewSampleProbs(g, probs), 6)
	for _, n := range grow {
		a.AddFromParallel(sa, n)
		b.AddFromParallel(sb, n)
	}

	onePool := NewPool(g, PoolOptions{Workers: 2, BatchSize: 16})
	refA := NewUniverse(g.NumNodes())
	sra := onePool.NewStream(NewSampleProbs(g, probs), 5)
	for _, n := range grow {
		refA.AddFromParallel(sra, n)
	}
	universesEqual(t, refA, a)

	refB := NewUniverse(g.NumNodes())
	srb := onePool.NewStream(NewSampleProbs(g, probs), 6)
	for _, n := range grow {
		refB.AddFromParallel(srb, n)
	}
	universesEqual(t, refB, b)
}

// KptEstimateParallelCtx through a shared pool equals the rebuild reference
// at every Workers and BatchSize, and a second estimate on the same
// stream — the engine's KPT refresh — continues from the slot the first
// one stopped at.
func TestPoolKptEstimate(t *testing.T) {
	g := newTestGraph(xrand.New(55))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	const seed = 11
	one := NewPool(g, PoolOptions{Workers: 1})
	first := rebuildKpt(one, probs, seed, 0, 2)
	for _, po := range streamConfigs {
		st := NewPool(g, po).NewStream(probs, seed)
		if got, _ := KptEstimateParallelCtx(context.Background(), st, g.NumEdges(), int64(g.NumNodes()), 2, 1); got != first {
			t.Errorf("%+v: KPT %v, rebuild reference %v", po, got, first)
		}
		used := st.next
		want := rebuildKpt(one, probs, seed, used, 4)
		if got, _ := KptEstimateParallelCtx(context.Background(), st, g.NumEdges(), int64(g.NumNodes()), 4, 1); got != want {
			t.Errorf("%+v: refreshed KPT %v, rebuild reference from slot %d %v", po, got, used, want)
		}
	}
}

// The sequential Sampler on one xrand.New(seed) flips one coin per
// examined arc on every node; it is the reference the stream's kernel
// is held to, and the stream takes the geometric skip path wherever a
// node's in-arcs share one probability. The inputs are the golden graph
// (mixed probabilities with exact zeros and ones), the tiny dblp and
// epinions presets under weighted cascade (every node on the skip path;
// epinions' in-degree-1 nodes take its p = 1 branch) and the tiny
// flixster preset under TIC (mixed in-arcs: the per-arc path). Both
// sides draw i.i.d. RR sets from the same distribution, so at 20000 sets
// each their size histograms (power-of-two buckets) must agree within
// 0.02 per bucket (4 standard errors at the worst case p = 1/2), and
// every node's inclusion count within 5 standard errors:
// |a−b| ≤ 5·√(a+b). The seeds are fixed, so the test is deterministic.
func TestStreamMatchesSamplerDistribution(t *testing.T) {
	for _, name := range []string{"golden", "dblp", "epinions", "flixster"} {
		t.Run(name, func(t *testing.T) {
			g, canonical := goldenGraph()
			if name != "golden" {
				g, canonical = kernelPreset(t, name)
			}
			streamMatchesSampler(t, g, canonical)
		})
	}
}

func streamMatchesSampler(t *testing.T, g *graph.Graph, canonical []float32) {
	const count = 20000
	type tally struct {
		sizes [32]int
		hits  []int
	}
	add := func(tl *tally, nodes []int32) {
		tl.sizes[bits.Len(uint(len(nodes)))]++
		for _, v := range nodes {
			tl.hits[v]++
		}
	}
	seq := tally{hits: make([]int, g.NumNodes())}
	sampler := NewSampler(g, canonical, xrand.New(1))
	for i := 0; i < count; i++ {
		nodes, _ := sampler.Sample()
		add(&seq, nodes)
	}
	str := tally{hits: make([]int, g.NumNodes())}
	NewPool(g, PoolOptions{Workers: 2}).NewStream(NewSampleProbs(g, canonical), 2).SampleN(count,
		func(nodes []int32) { add(&str, nodes) })

	for b := range seq.sizes {
		fa, fb := float64(seq.sizes[b])/count, float64(str.sizes[b])/count
		if math.Abs(fa-fb) > 0.02 {
			t.Errorf("sizes in [2^%d, 2^%d): sampler share %.4f, stream share %.4f", b-1, b, fa, fb)
		}
	}
	worst := 0.0
	for v := range seq.hits {
		a, b := float64(seq.hits[v]), float64(str.hits[v])
		if a+b == 0 {
			continue
		}
		z := math.Abs(a-b) / math.Sqrt(a+b)
		worst = max(worst, z)
		if z > 5 {
			t.Errorf("node %d: in %d sampler sets, %d stream sets (z = %.1f)", v, seq.hits[v], str.hits[v], z)
		}
	}
	t.Logf("largest inclusion z-score over %d nodes: %.2f", g.NumNodes(), worst)
}
