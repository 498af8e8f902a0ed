package rrset

import (
	"bytes"
	"context"
	"errors"
	"math/bits"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// newTestGraph builds a random 200-node digraph with a few hubs so greedy
// choices are well separated.
func newTestGraph(rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(200, 1200)
	for v := int32(1); v <= 60; v++ {
		b.AddEdge(0, v) // dominant hub
	}
	for i := 0; i < 1100; i++ {
		b.AddEdge(rng.Int31n(200), rng.Int31n(200))
	}
	return b.Build()
}

func TestViewPrefixIsolation(t *testing.T) {
	// Sets added to the universe after a view's last sync are invisible to
	// it until Sync is called.
	u := NewUniverse(3)
	u.Add([]int32{0})
	v := NewView(u)
	if v.Size() != 1 || v.CovCount(0) != 1 {
		t.Fatal("initial sync wrong")
	}
	u.Add([]int32{0, 1})
	u.Add([]int32{1})
	if v.Size() != 1 || v.CovCount(0) != 1 || v.CovCount(1) != 0 {
		t.Error("view leaked unsynced sets")
	}
	// CoverBy must ignore unsynced sets.
	if got := v.CoverBy(0); got != 1 {
		t.Errorf("CoverBy(0) covered %d, want 1 (only the synced set)", got)
	}
	if added := v.Sync(); added != 2 {
		t.Errorf("Sync integrated %d sets, want 2", added)
	}
	if v.CovCount(0) != 1 || v.CovCount(1) != 2 {
		t.Errorf("post-sync counts: %d %d, want 1 2", v.CovCount(0), v.CovCount(1))
	}
	// Re-attribution: covering 0 again takes the newly synced set.
	if got := v.CoverBy(0); got != 1 {
		t.Errorf("re-CoverBy(0) covered %d, want 1", got)
	}
}

func TestTwoViewsIndependentCoverage(t *testing.T) {
	u := NewUniverse(3)
	u.Add([]int32{0, 1})
	u.Add([]int32{1, 2})
	v1 := NewView(u)
	v2 := NewView(u)
	v1.CoverBy(0)
	if v2.NumCovered() != 0 || v2.CovCount(1) != 2 {
		t.Error("coverage leaked across views")
	}
	v2.CoverBy(1)
	if v2.NumCovered() != 2 {
		t.Error("second view coverage wrong")
	}
	if v1.NumCovered() != 1 {
		t.Error("first view affected by second")
	}
}

func TestUniverseMemorySharing(t *testing.T) {
	rng := xrand.New(1)
	u := NewUniverse(100)
	for i := 0; i < 1000; i++ {
		set := make([]int32, 1+rng.Intn(5))
		seen := map[int32]bool{}
		for j := range set {
			v := rng.Int31n(100)
			for seen[v] {
				v = rng.Int31n(100)
			}
			seen[v] = true
			set[j] = v
		}
		u.Add(set)
	}
	v1, v2 := NewView(u), NewView(u)
	shared := u.MemoryFootprint() + v1.MemoryFootprint() + v2.MemoryFootprint()
	exclusive := 2 * (u.MemoryFootprint() + v1.MemoryFootprint())
	if shared >= exclusive {
		t.Errorf("sharing saves nothing: shared %d vs exclusive %d", shared, exclusive)
	}
}

func TestViewSpreadEstimateViaSampler(t *testing.T) {
	// Views over universes fed by independent samplers of one
	// distribution must agree on the greedy first pick.
	rng := xrand.New(2)
	gB := newTestGraph(rng)
	probs := make([]float32, gB.NumEdges())
	for i := range probs {
		probs[i] = 0.3
	}
	var top [2]int32
	for i := range top {
		u := NewUniverse(gB.NumNodes())
		u.AddFrom(NewSampler(gB, probs, rng.Split()), 30000)
		top[i], _ = NewView(u).MaxCovCount(nil)
	}
	if top[0] != top[1] {
		t.Errorf("top node differs between independent samples: %d vs %d", top[0], top[1])
	}
}

// A universe emptied by Reset — after a larger fill, a stale mark and a
// repair — and refilled from a stream equals a fresh universe filled
// from the same stream: sets, every index chain, no stale marks and the
// same StoredBytes, while it keeps the larger fill's capacity.
func TestUniverseResetRefillsLikeFresh(t *testing.T) {
	g := newTestGraph(xrand.New(61))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	pool := NewPool(g, PoolOptions{Workers: 1})
	u := NewUniverse(g.NumNodes())
	u.AddFromParallel(pool.NewStream(probs, 3), 5000)
	u.Invalidate([]int32{0, 7})
	pool.RepairUniverse(u, probs, 3)
	u.Invalidate([]int32{1})
	held := u.MemoryFootprint()

	u.Reset()
	if u.Size() != 0 || u.StaleCount() != 0 || u.StoredBytes() != NewUniverse(g.NumNodes()).StoredBytes() {
		t.Fatalf("reset universe: %d sets, %d stale, %d stored bytes", u.Size(), u.StaleCount(), u.StoredBytes())
	}
	fresh := NewUniverse(g.NumNodes())
	fresh.AddFromParallel(pool.NewStream(probs, 4), 1200)
	u.AddFromParallel(pool.NewStream(probs, 4), 1200)
	universesEqual(t, fresh, u)
	sameIndex(t, u, fresh)
	if u.StaleCount() != 0 || u.StoredBytes() != fresh.StoredBytes() {
		t.Fatalf("refilled: %d stale, %d stored bytes; fresh %d", u.StaleCount(), u.StoredBytes(), fresh.StoredBytes())
	}
	if got := u.MemoryFootprint(); got != held {
		t.Fatalf("refill changed the held heap: %d bytes, %d before Reset", got, held)
	}
}

// StoredBytes is a function of the stored sets alone: the same stream
// sets added in one step (one index segment) and in steps of 800, 150 and
// 50 (three segments) read the same bytes, those of one start array.
func TestStoredBytesIndependentOfGrowth(t *testing.T) {
	g := newTestGraph(xrand.New(62))
	probs := NewSampleProbs(g, testProbs(g.NumEdges(), 0.1))
	pool := NewPool(g, PoolOptions{Workers: 1})
	whole := NewUniverse(g.NumNodes())
	whole.AddFromParallel(pool.NewStream(probs, 5), 1000)
	steps := NewUniverse(g.NumNodes())
	st := pool.NewStream(probs, 5)
	for _, count := range []int{800, 150, 50} {
		steps.AddFromParallel(st, count)
	}
	universesEqual(t, whole, steps)
	if segs := len(steps.idx.segs); segs != 3 {
		t.Fatalf("stepwise growth left %d index segments, want 3", segs)
	}
	if a, b := whole.StoredBytes(), steps.StoredBytes(); a != b {
		t.Fatalf("StoredBytes %d in one step, %d in three", a, b)
	}
}

// countdownCtx is a context that reports cancellation from its left+1-th
// Err call on, so a sampling call stops partway through.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSegmentedGrowthMatchesRebuild grows a universe through a random
// sequence of AddFromParallelCtx calls, one canceled partway and one
// RepairUniverse on changed arc probabilities in between. After every
// call the index must agree with a membership scan and hold at most
// ⌊log₂ Size⌋+1 segments; after the canceled call, after the repair and
// at the end, set bytes and index must equal a cold RebuildUniverse.
// The last call is large enough that a three-worker pool builds its
// segment over several ranges.
func TestSegmentedGrowthMatchesRebuild(t *testing.T) {
	g := newTestGraph(xrand.New(71))
	probs := testProbs(g.NumEdges(), 0.2)
	const seed = 5
	for _, workers := range []int{1, 3} {
		rng := xrand.New(72)
		sp := NewSampleProbs(g, probs)
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 16})
		s := pool.NewStream(sp, seed)
		u := NewUniverse(g.NumNodes())
		matchesRebuild := func(label string) {
			t.Helper()
			ref := pool.RebuildUniverse(u.Size(), sp, seed)
			if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
				t.Fatalf("workers=%d, %s: sets differ from a cold rebuild", workers, label)
			}
			sameIndex(t, u, ref)
		}
		const steps = 40
		most := 0 // the most segments seen at once
		for step := range steps {
			count := 1 + rng.Intn(1<<rng.Intn(12))
			ctx := context.Background()
			if step == steps-1 {
				count = 40000
			}
			if step == 6 {
				cd := &countdownCtx{Context: ctx}
				cd.left.Store(3)
				ctx, count = cd, 1000
			}
			before := u.Size()
			err := u.AddFromParallelCtx(ctx, s, count)
			if step == 6 {
				if !errors.Is(err, context.Canceled) || u.Size() >= before+count {
					t.Fatalf("workers=%d: canceled call returned %v after %d of %d sets", workers, err, u.Size()-before, count)
				}
				matchesRebuild("canceled call")
			} else if err != nil {
				t.Fatal(err)
			}
			if step == 10 {
				moved := append([]float32(nil), probs...)
				touched := []int32{0, 3, 77}
				for _, v := range touched {
					for _, e := range g.InEdgeIDs(v) {
						moved[e] = 0.4
					}
				}
				sp = NewSampleProbs(g, moved)
				u.Invalidate(touched)
				pool.RepairUniverse(u, sp, seed)
				if len(u.idx.segs) != 1 {
					t.Fatalf("workers=%d: %d segments after a repair, want 1", workers, len(u.idx.segs))
				}
				matchesRebuild("repair")
				s = pool.NewStreamAt(sp, seed, u.Size())
			}
			checkIndexConsistent(t, u)
			most = max(most, len(u.idx.segs))
			if got, bound := len(u.idx.segs), bits.Len(uint(u.Size())); got > bound {
				t.Fatalf("workers=%d, step %d: %d segments over %d sets, want at most %d", workers, step, got, u.Size(), bound)
			}
		}
		matchesRebuild("end")
		if most < 3 {
			t.Fatalf("workers=%d: at most %d segments at once; the sequence exercises no multi-segment index", workers, most)
		}
	}
}
