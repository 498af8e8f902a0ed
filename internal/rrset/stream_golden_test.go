package rrset

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// goldenGraph is the fixed input of the stream goldens: an R-MAT graph
// whose arc probabilities mix exact zeros (the kernel must skip them
// without drawing), exact ones, and a spread of small values.
func goldenGraph() (*graph.Graph, []float32) {
	g := gen.RMAT(2000, 14000, gen.DefaultRMAT, xrand.New(2024))
	probs := make([]float32, g.NumEdges())
	for e := range probs {
		switch {
		case e%13 == 0:
			probs[e] = 0
		case e%29 == 0:
			probs[e] = 1
		default:
			probs[e] = 0.005 + float32((e*7919)%97)/2000
		}
	}
	return g, probs
}

// hashSet folds one RR set (length, members) into h.
func hashSet(h hash.Hash64, nodes []int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(nodes)))
	h.Write(b[:4])
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
}

// TestStreamGolden pins the exact RR stream — the members of the first
// 10k sets, the KPT estimate bits, and a partial universe repair —
// and asserts the one hash triple at Workers 1 and 2 (batch 256): any
// change to per-slot seeding, RNG consumption, the per-arc coin or the
// skip path's gap rule, or emission order shows up here.
func TestStreamGolden(t *testing.T) {
	g, canonical := goldenGraph()
	probs := NewSampleProbs(g, canonical)
	const stream, kpt, repair = 0x614bef2dab8215b7, 0x405d19acc507ad91, 0x1b14c8640e16e3af
	for _, workers := range []int{1, 2} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 256})

		h := fnv.New64a()
		st := pool.NewStream(probs, 77)
		members := 0
		for _, count := range []int{1000, 4000, 5000} {
			st.SampleN(count, func(nodes []int32) {
				members += len(nodes)
				hashSet(h, nodes)
			})
		}
		gotStream := h.Sum64()

		est, err := KptEstimateParallelCtx(context.Background(), pool.NewStream(probs, 78),
			g.NumEdges(), int64(g.NumNodes()), 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotKpt := math.Float64bits(est)

		u := NewUniverse(g.NumNodes())
		u.AddFromParallel(pool.NewStream(probs, 79), 3000)
		stale := u.Invalidate([]int32{0, 1, 2, 3, 5, 8, 13, 21})
		if got := pool.RepairUniverse(u, probs, 80); got != stale {
			t.Fatalf("workers=%d: repaired %d slots, invalidated %d", workers, got, stale)
		}
		h = fnv.New64a()
		for id := int32(0); int(id) < u.Size(); id++ {
			hashSet(h, u.Set(id))
		}
		gotRepair := h.Sum64()

		t.Logf("workers=%d: members=%d stale=%d stream=%#x kpt=%#x repair=%#x",
			workers, members, stale, gotStream, gotKpt, gotRepair)
		if gotStream != stream || gotKpt != kpt || gotRepair != repair {
			t.Errorf("workers=%d: got stream=%#x kpt=%#x repair=%#x, want %#x %#x %#x",
				workers, gotStream, gotKpt, gotRepair, uint64(stream), uint64(kpt), uint64(repair))
		}
	}
}
