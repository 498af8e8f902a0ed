package rrset

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// testProbs builds uniform arc probabilities for a graph from newTestGraph.
func testProbs(n int64, p float32) []float32 {
	probs := make([]float32, n)
	for i := range probs {
		probs[i] = p
	}
	return probs
}

// universesEqual reports whether two universes hold the same sets in the
// same order, with identical inverted-index degrees.
func universesEqual(t *testing.T, a, b *Universe) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for id := int32(0); id < int32(a.Size()); id++ {
		sa, sb := a.Set(id), b.Set(id)
		if len(sa) != len(sb) {
			t.Fatalf("set %d: lengths differ: %d vs %d", id, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("set %d differs at %d: %d vs %d", id, i, sa[i], sb[i])
			}
		}
	}
	for v := int32(0); v < a.n; v++ {
		if a.NumSetsContaining(v) != b.NumSetsContaining(v) {
			t.Fatalf("degree[%d] differs: %d vs %d", v, a.NumSetsContaining(v), b.NumSetsContaining(v))
		}
	}
}

// streamConfigs are the pool shapes a stream's output must not depend
// on: Workers {1, 2, 4} × BatchSize {7, 256}. The batch of 7 puts a
// batch boundary every few sets.
var streamConfigs = []PoolOptions{
	{Workers: 1, BatchSize: 7}, {Workers: 1, BatchSize: 256},
	{Workers: 2, BatchSize: 7}, {Workers: 2, BatchSize: 256},
	{Workers: 4, BatchSize: 7}, {Workers: 4, BatchSize: 256},
}

// rebuildKpt is the KPT estimate a stream of seed started at slot first
// must give: KptEstimation fed, in slot order, the widths of
// RebuildUniverse's sets from slot first on (a set's width is the
// in-degree sum of its members).
func rebuildKpt(pool *Pool, probs SampleProbs, seed uint64, first, size int) float64 {
	g := pool.g
	n := int64(g.NumNodes())
	log2n := math.Log2(float64(n))
	base := 6*math.Log(float64(n)) + 6*math.Log(math.Max(log2n, 2))
	ref := pool.RebuildUniverse(first+int(base*math.Exp2(math.Floor(log2n)))+int(log2n), probs, seed)
	next := int32(first)
	kpt, _ := kptEstimate(func(count int, yield func(width int64)) error {
		for ; count > 0; count-- {
			var width int64
			for _, v := range ref.Set(next) {
				width += int64(g.InDegree(v))
			}
			yield(width)
			next++
		}
		return nil
	}, g.NumEdges(), n, size, 1)
	return kpt
}

// A stream emits RebuildUniverse's sets in slot order at every Workers
// and BatchSize: same sets, same order, same index.
func TestParallelSingleWorkerBitIdentical(t *testing.T) {
	g := newTestGraph(xrand.New(41))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	const seed, count = 7, 500
	ref := NewPool(g, PoolOptions{Workers: 1}).RebuildUniverse(count, probs, seed)
	for _, po := range streamConfigs {
		par := NewUniverse(g.NumNodes())
		par.AddFromParallel(NewPool(g, po).NewStream(probs, seed), count)
		universesEqual(t, ref, par)
	}
}

// KptEstimateParallelCtx at every Workers and BatchSize equals KptEstimation
// over RebuildUniverse's set widths, exactly.
func TestKptEstimateParallelSingleWorkerMatches(t *testing.T) {
	g := newTestGraph(xrand.New(42))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	const seed = 11
	for _, size := range []int{1, 5} {
		want := rebuildKpt(NewPool(g, PoolOptions{Workers: 1}), probs, seed, 0, size)
		for _, po := range streamConfigs {
			got, _ := KptEstimateParallelCtx(context.Background(), NewPool(g, po).NewStream(probs, seed),
				g.NumEdges(), int64(g.NumNodes()), size, 1)
			if got != want {
				t.Errorf("size=%d %+v: KPT %v, rebuild reference %v", size, po, got, want)
			}
		}
	}
}

// For a fixed seed the multi-worker output stream is deterministic —
// independent of goroutine scheduling — including across a sequence of
// incremental AddFromParallel calls, the engine's sample-growth pattern.
func TestParallelDeterministic(t *testing.T) {
	g := newTestGraph(xrand.New(43))
	probs := testProbs(g.NumEdges(), 0.1)
	const seed = 13
	grow := []int{100, 37, 411}
	stream := func() *Stream {
		pool := NewPool(g, PoolOptions{Workers: 4, BatchSize: 32})
		return pool.NewStream(NewSampleProbs(g, probs), seed)
	}

	build := func() *Universe {
		u := NewUniverse(g.NumNodes())
		s := stream()
		for _, n := range grow {
			u.AddFromParallel(s, n)
		}
		return u
	}
	universesEqual(t, build(), build())

	kpt := func() float64 {
		kpt, _ := KptEstimateParallelCtx(context.Background(), stream(), g.NumEdges(), int64(g.NumNodes()), 3, 1)
		return kpt
	}
	if a, b := kpt(), kpt(); a != b {
		t.Errorf("KptEstimateParallelCtx not deterministic: %v vs %v", a, b)
	}
}

// Edge geometry: counts smaller than one batch, counts that don't divide
// evenly into batches, and more workers than batches must all deliver
// exactly count sets.
func TestParallelCounts(t *testing.T) {
	g := newTestGraph(xrand.New(45))
	probs := testProbs(g.NumEdges(), 0.1)
	for _, tc := range []struct {
		workers, batch, count int
	}{
		{4, 64, 1},
		{4, 64, 63},
		{4, 64, 64},
		{4, 64, 65},
		{8, 16, 17},
		{8, 1000, 3}, // more workers than batches
		{2, 7, 700},
	} {
		pool := NewPool(g, PoolOptions{Workers: tc.workers, BatchSize: tc.batch})
		got := 0
		pool.NewStream(NewSampleProbs(g, probs), 19).SampleN(tc.count, func(nodes []int32) {
			if len(nodes) == 0 {
				t.Fatalf("%+v: empty RR set", tc)
			}
			got++
		})
		if got != tc.count {
			t.Errorf("%+v: emitted %d sets, want %d", tc, got, tc.count)
		}
	}
}

// Universes filled concurrently, each from its own multi-worker pool,
// so `go test -race` guards the merge path.
func TestParallelConcurrentAddFrom(t *testing.T) {
	g := newTestGraph(xrand.New(46))
	probs := testProbs(g.NumEdges(), 0.1)
	const ads = 6
	fill := func(seed uint64) *Universe {
		pool := NewPool(g, PoolOptions{Workers: 4, BatchSize: 32})
		u := NewUniverse(g.NumNodes())
		u.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), seed), 400)
		return u
	}

	univs := make([]*Universe, ads)
	var wg sync.WaitGroup
	for i := 0; i < ads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			univs[i] = fill(uint64(100 + i))
		}(i)
	}
	wg.Wait()

	for i, u := range univs {
		if u.Size() != 400 {
			t.Errorf("ad %d: %d sets, want 400", i, u.Size())
		}
	}
	// Same-seed pools must agree regardless of the concurrency around them.
	universesEqual(t, fill(100), univs[0])
}

// Zero-probability arcs must yield singleton RR sets through the parallel
// path too (the lazy coin flips never expand the frontier).
func TestParallelZeroProb(t *testing.T) {
	g, probs := line3(0.0)
	pool := NewPool(g, PoolOptions{Workers: 2, BatchSize: 4})
	pool.NewStream(NewSampleProbs(g, probs), 3).SampleN(40, func(nodes []int32) {
		if len(nodes) != 1 {
			t.Fatalf("p=0 RR set has %d nodes, want 1", len(nodes))
		}
	})
}
