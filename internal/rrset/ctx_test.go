package rrset

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/xrand"
)

// Canceling mid-stream stops emission at the next batch boundary: the
// yield count stays a strict prefix of the request and the context's
// error is returned — the promptness contract the Engine's solve path
// relies on.
func TestSampleNCtxCancelMidStream(t *testing.T) {
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, xrand.New(1))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.3
	}
	for _, workers := range []int{1, 3} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 16})
		s := pool.NewStream(NewSampleProbs(g, probs), 7)
		ctx, cancel := context.WithCancel(context.Background())
		const want = 10_000
		got := 0
		err := s.SampleNCtx(ctx, want, func(nodes []int32) {
			got++
			if got == 40 {
				cancel() // cancel after ~2.5 batches have been merged
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got >= want {
			t.Fatalf("workers=%d: full request emitted despite cancellation", workers)
		}
		if got < 40 {
			t.Fatalf("workers=%d: emitted %d sets, cancellation fired too early", workers, got)
		}
	}
}

// A context canceled inside the yield of the last requested set comes
// too late to stop anything: every set was emitted, so SampleNCtx
// returns nil at every Workers, and a growth that completed reports so.
func TestSampleNCtxCancelAtLastSetReturnsNil(t *testing.T) {
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, xrand.New(5))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.2))
	const want = 100
	for _, workers := range []int{1, 2, 4} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 16})
		ctx, cancel := context.WithCancel(context.Background())
		got := 0
		err := pool.NewStream(probs, 7).SampleNCtx(ctx, want, func([]int32) {
			got++
			if got == want {
				cancel()
			}
		})
		cancel()
		if err != nil || got != want {
			t.Fatalf("workers=%d: err = %v after %d of %d sets, want nil and every set", workers, err, got, want)
		}
	}
}

// A canceled SampleNCtx leaves the stream at the first slot it did not
// emit: finishing the request with later calls gives exactly the
// uncanceled sample, at one worker and at several.
func TestSampleNCtxCancelResumesExactly(t *testing.T) {
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, xrand.New(4))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.3))
	const want, seed = 2000, 8
	ref := NewPool(g, PoolOptions{Workers: 1}).RebuildUniverse(want, probs, seed)
	for _, workers := range []int{1, 3} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 16})
		s := pool.NewStream(probs, seed)
		u := NewUniverse(g.NumNodes())
		ctx, cancel := context.WithCancel(context.Background())
		err := s.SampleNCtx(ctx, want, func(nodes []int32) {
			u.Add(nodes)
			if u.Size() == 40 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) || u.Size() >= want {
			t.Fatalf("workers=%d: err = %v after %d sets, want a canceled prefix", workers, err, u.Size())
		}
		u.AddFromParallel(s, want-u.Size())
		universesEqual(t, ref, u)
	}
}

// An uncanceled SampleNCtx emits exactly the SampleN sequence — the ctx
// plumbing must not perturb the deterministic stream.
func TestSampleNCtxMatchesSampleN(t *testing.T) {
	g := gen.RMAT(128, 700, gen.DefaultRMAT, xrand.New(2))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.25
	}
	for _, workers := range []int{1, 4} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 32})
		// Yielded slices are windows into reused batch buffers, so the
		// retained comparison copies must be taken inside the yield.
		var a, b [][]int32
		pool.NewStream(NewSampleProbs(g, probs), 9).SampleN(500, func(nodes []int32) {
			a = append(a, append([]int32(nil), nodes...))
		})
		if err := pool.NewStream(NewSampleProbs(g, probs), 9).SampleNCtx(context.Background(), 500,
			func(nodes []int32) {
				b = append(b, append([]int32(nil), nodes...))
			}); err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d vs %d sets", workers, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("workers=%d: set %d sizes differ", workers, i)
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("workers=%d: set %d differs at %d", workers, i, j)
				}
			}
		}
	}
}

// AddFromParallelCtx on a canceled context adds only a prefix and
// reports the error; KptEstimateParallelCtx aborts its loop likewise.
func TestAddFromParallelCtxCanceled(t *testing.T) {
	g := gen.RMAT(128, 700, gen.DefaultRMAT, xrand.New(3))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.3
	}
	pool := NewPool(g, PoolOptions{Workers: 2, BatchSize: 16})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u := NewUniverse(g.NumNodes())
	if err := u.AddFromParallelCtx(ctx, pool.NewStream(NewSampleProbs(g, probs), 5), 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("universe add: err = %v, want context.Canceled", err)
	}
	if u.Size() >= 1000 {
		t.Error("canceled add filled the whole request")
	}
	if _, err := KptEstimateParallelCtx(ctx, pool.NewStream(NewSampleProbs(g, probs), 6),
		g.NumEdges(), int64(g.NumNodes()), 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("kpt estimate: err = %v, want context.Canceled", err)
	}
}

// Prefix views replay exactly the coverage state a view over a smaller
// universe would have had — the mechanism that keeps cross-solve
// universe-cache hits bit-identical to cold runs.
func TestViewPrefixMatchesSmallerUniverse(t *testing.T) {
	g := gen.RMAT(64, 300, gen.DefaultRMAT, xrand.New(5))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.4
	}
	pool := NewPool(g, PoolOptions{Workers: 1})

	// Small universe: 200 sets. Big universe: same stream, 500 sets.
	small := NewUniverse(g.NumNodes())
	small.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), 11), 200)
	big := NewUniverse(g.NumNodes())
	big.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), 11), 500)

	vSmall := NewView(small)
	vBig := NewViewPrefix(big, 200)
	if vSmall.Size() != 200 || vBig.Size() != 200 {
		t.Fatalf("view sizes: %d, %d, want 200", vSmall.Size(), vBig.Size())
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		if vSmall.CovCount(v) != vBig.CovCount(v) {
			t.Fatalf("node %d: prefix view covcount %d vs %d", v, vBig.CovCount(v), vSmall.CovCount(v))
		}
	}
	// Covering through both views stays aligned, and SyncTo extends the
	// prefix without overshooting the limit.
	node, _ := vSmall.MaxCovCount(nil)
	if vSmall.CoverBy(node) != vBig.CoverBy(node) {
		t.Fatal("prefix views diverged on CoverBy")
	}
	if added := vBig.SyncTo(350); added != 150 {
		t.Fatalf("SyncTo(350) integrated %d sets, want 150", added)
	}
	if vBig.Size() != 350 {
		t.Fatalf("view size %d after SyncTo(350)", vBig.Size())
	}
	if added := vBig.SyncTo(100); added != 0 {
		t.Fatalf("SyncTo below prefix integrated %d sets", added)
	}
	if added := vBig.SyncTo(1_000_000); added != 150 {
		t.Fatalf("SyncTo past universe end integrated %d sets, want 150", added)
	}
}
