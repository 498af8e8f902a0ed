package rrset

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/xrand"
)

// linearMaxCovCount is the retained pre-refactor reference selector: the
// O(n) scan MaxCovCount ran before the bucket queue, kept verbatim so
// the indexed implementation stays pinned to its exact semantics —
// maximum live coverage over eligible nodes, lowest node ID among
// maxima, first eligible node with count 0 when nothing covers, (-1, 0)
// when nothing is eligible.
func linearMaxCovCount(n int32, covCount func(int32) int32, eligible func(int32) bool) (node int32, count int32) {
	node = -1
	for v := int32(0); v < n; v++ {
		if eligible != nil && !eligible(v) {
			continue
		}
		if covCount(v) > count {
			count = covCount(v)
			node = v
		} else if node < 0 {
			node = v
		}
	}
	if node < 0 {
		return -1, 0
	}
	return node, covCount(node)
}

// randomSet draws a duplicate-free random set of 1..maxSize nodes. Small
// n keeps coverage counts heavily tied, exercising the tie-break path.
func randomSet(rng *xrand.RNG, n int32, maxSize int) []int32 {
	if maxSize > int(n) {
		maxSize = int(n)
	}
	size := 1 + rng.Intn(maxSize)
	seen := map[int32]bool{}
	var set []int32
	for len(set) < size {
		v := rng.Int31n(n)
		if !seen[v] {
			seen[v] = true
			set = append(set, v)
		}
	}
	return set
}

// randomEligible builds a random eligibility predicate: nil (all nodes),
// a random subset, a single node, or nothing eligible.
func randomEligible(rng *xrand.RNG, n int32) func(int32) bool {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		ok := make([]bool, n)
		for v := range ok {
			ok[v] = rng.Float64() < 0.5
		}
		return func(v int32) bool { return ok[v] }
	case 2:
		only := rng.Int31n(n)
		return func(v int32) bool { return v == only }
	default:
		return func(int32) bool { return false }
	}
}

// TestMaxCovCountMatchesLinearReference drives Views through randomized
// interleavings of universe adds, view creation and syncs, covers and
// eligibility-filtered maximum queries, comparing every answer bit for
// bit against the linear-scan reference. This is the determinism
// contract that lets the bucket queue replace the scan without
// perturbing any seed-pinned solver output.
func TestMaxCovCountMatchesLinearReference(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := xrand.New(uint64(1000 + trial))
		n := int32(3 + rng.Intn(40))
		u := NewUniverse(n)
		var v *View
		check := func(stage string) {
			t.Helper()
			if v == nil {
				return
			}
			eligible := randomEligible(rng, n)
			wantN, wantC := linearMaxCovCount(n, v.CovCount, eligible)
			gotN, gotC := v.MaxCovCount(eligible)
			if gotN != wantN || gotC != wantC {
				t.Fatalf("trial %d %s: view MaxCovCount = (%d,%d), reference (%d,%d)",
					trial, stage, gotN, gotC, wantN, wantC)
			}
		}
		ops := 40 + rng.Intn(100)
		for op := 0; op < ops; op++ {
			switch rng.Intn(5) {
			case 0, 1: // grow the universe
				u.Add(randomSet(rng, n, 5))
			case 2: // cover through the view, if live
				if v != nil {
					v.CoverBy(rng.Int31n(n))
				}
			case 3: // create the view over the current universe, or sync it
				if v == nil {
					v = NewView(u)
				} else {
					v.Sync()
				}
			}
			check("op")
		}
		check("final")
	}
}

// TestMaxCovCountNoEligible pins the two degenerate contract points:
// nothing eligible yields (-1, 0), and all-zero coverage yields the
// first eligible node with count 0 — exactly what the linear scan did.
func TestMaxCovCountNoEligible(t *testing.T) {
	u := NewUniverse(6)
	u.Add([]int32{1, 2})
	v := NewView(u)
	if node, count := v.MaxCovCount(func(int32) bool { return false }); node != -1 || count != 0 {
		t.Errorf("nothing eligible: got (%d,%d), want (-1,0)", node, count)
	}
	v.CoverBy(1) // all counts back to zero
	if node, count := v.MaxCovCount(func(v int32) bool { return v >= 3 }); node != 3 || count != 0 {
		t.Errorf("all-zero counts: got (%d,%d), want (3,0)", node, count)
	}
}

// TestWarmArenaSamplingAllocationFree pins the arenas' allocation
// contract: once they are warm (a cold pass with headroom has grown
// every buffer), refilling a universe through the single-worker stream
// performs zero heap allocations — no per-set slices, no per-node index
// growth.
func TestWarmArenaSamplingAllocationFree(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, xrand.New(8))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.2
	}
	pool := NewPool(g, PoolOptions{Workers: 1, BatchSize: 64})
	s := pool.NewStream(NewSampleProbs(g, probs), 21)
	u := NewUniverse(g.NumNodes())
	const count = 1500
	// Cold pass with 3× headroom: every arena and the stream's batch
	// buffers reach their steady-state capacity here.
	u.AddFromParallel(s, 3*count)
	allocs := testing.AllocsPerRun(4, func() {
		// Empty the universe in place, keeping every arena's capacity.
		u.data = u.data[:0]
		u.offsets = u.offsets[:1]
		u.idx.reset()
		u.stale = bitset{words: u.stale.words[:0]}
		u.AddFromParallel(s, count)
	})
	if allocs != 0 {
		t.Errorf("warm arena sampling allocated %.1f times per refill, want 0", allocs)
	}
}

// TestCoverByAllocationFree: the greedy loop's inner operation — cover
// all live sets containing a node — must never allocate: it only walks
// the flat index, flips bitset bits and moves nodes down the bucket
// queue.
func TestCoverByAllocationFree(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, xrand.New(9))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.3
	}
	pool := NewPool(g, PoolOptions{Workers: 1})
	u := NewUniverse(g.NumNodes())
	u.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), 33), 4000)
	v := NewView(u)
	next := int32(0)
	allocs := testing.AllocsPerRun(20, func() {
		v.CoverBy(next % g.NumNodes())
		next++
	})
	if allocs != 0 {
		t.Errorf("CoverBy allocated %.1f times per call, want 0", allocs)
	}
}
