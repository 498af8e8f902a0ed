package rrset

import (
	"sync"
	"testing"

	"repro/internal/xrand"
)

// A single-slot pool stream must reproduce the sequential sampler bit for
// bit — the same contract ParallelSampler pins, re-pinned here directly
// through the shared-pool path the engine now uses.
func TestPoolStreamSingleWorkerBitIdentical(t *testing.T) {
	g := newTestGraph(xrand.New(51))
	probs := testProbs(g.NumEdges(), 0.1)
	const seed, count = 7, 500

	seq := NewCollection(g.NumNodes())
	seq.AddFrom(NewSampler(g, probs, xrand.New(seed)), count)

	pool := NewPool(g, PoolOptions{Workers: 1})
	par := NewCollection(g.NumNodes())
	par.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), seed), count)

	collectionsEqual(t, seq, par)
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
	colls := make([]*Collection, ads)
	var wg sync.WaitGroup
	for i := 0; i < ads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewCollection(g.NumNodes())
			c.AddFromParallel(shared.NewStream(NewSampleProbs(g, probs), uint64(100+i)), count)
			colls[i] = c
		}(i)
	}
	wg.Wait()

	for i := 0; i < ads; i++ {
		ref := NewCollection(g.NumNodes())
		ref.AddFromParallel(NewParallelSampler(g, probs, SampleOptions{
			Workers: 3, BatchSize: 32, Seed: uint64(100 + i),
		}), count)
		collectionsEqual(t, ref, colls[i])
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
			pool.NewStream(NewSampleProbs(g, probs), uint64(ads)).SampleN(200, func([]int32, int64) {})
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
	a := NewCollection(g.NumNodes())
	b := NewCollection(g.NumNodes())
	sa := pool.NewStream(NewSampleProbs(g, probs), 5)
	sb := pool.NewStream(NewSampleProbs(g, probs), 6)
	for _, n := range grow {
		a.AddFromParallel(sa, n)
		b.AddFromParallel(sb, n)
	}

	onePool := NewPool(g, PoolOptions{Workers: 2, BatchSize: 16})
	refA := NewCollection(g.NumNodes())
	sra := onePool.NewStream(NewSampleProbs(g, probs), 5)
	for _, n := range grow {
		refA.AddFromParallel(sra, n)
	}
	collectionsEqual(t, refA, a)

	refB := NewCollection(g.NumNodes())
	srb := onePool.NewStream(NewSampleProbs(g, probs), 6)
	for _, n := range grow {
		refB.AddFromParallel(srb, n)
	}
	collectionsEqual(t, refB, b)
}

// KptEstimateParallel through a shared pool matches the sequential
// estimator for a single slot, and is reproducible for multiple slots.
func TestPoolKptEstimate(t *testing.T) {
	g := newTestGraph(xrand.New(55))
	probs := testProbs(g.NumEdges(), 0.1)
	const seed = 11

	seq := KptEstimate(NewSampler(g, probs, xrand.New(seed)),
		g.NumEdges(), int64(g.NumNodes()), 2, 1)
	one := NewPool(g, PoolOptions{Workers: 1})
	if got := KptEstimateParallel(one.NewStream(NewSampleProbs(g, probs), seed),
		g.NumEdges(), int64(g.NumNodes()), 2, 1); got != seq {
		t.Errorf("single-slot pool KPT %v != sequential %v", got, seq)
	}

	multi := func() float64 {
		p := NewPool(g, PoolOptions{Workers: 4, BatchSize: 32})
		return KptEstimateParallel(p.NewStream(NewSampleProbs(g, probs), seed),
			g.NumEdges(), int64(g.NumNodes()), 2, 1)
	}
	if a, b := multi(), multi(); a != b {
		t.Errorf("multi-slot pool KPT not reproducible: %v vs %v", a, b)
	}
}
