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

// TestMaxCovCountMatchesLinearReference drives Collections and Views
// through randomized interleavings of adds, covers and eligibility-
// filtered maximum queries, comparing every answer bit for bit against
// the linear-scan reference. This is the determinism contract that lets
// the bucket queue replace the scan without perturbing any seed-pinned
// solver output.
func TestMaxCovCountMatchesLinearReference(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := xrand.New(uint64(1000 + trial))
		n := int32(3 + rng.Intn(40))
		c := NewCollection(n)
		u := NewUniverse(n)
		var v *View
		synced := 0
		check := func(stage string) {
			t.Helper()
			eligible := randomEligible(rng, n)
			wantN, wantC := linearMaxCovCount(n, c.CovCount, eligible)
			gotN, gotC := c.MaxCovCount(eligible)
			if gotN != wantN || gotC != wantC {
				t.Fatalf("trial %d %s: collection MaxCovCount = (%d,%d), reference (%d,%d)",
					trial, stage, gotN, gotC, wantN, wantC)
			}
			if v != nil {
				wantN, wantC = linearMaxCovCount(n, v.CovCount, eligible)
				gotN, gotC = v.MaxCovCount(eligible)
				if gotN != wantN || gotC != wantC {
					t.Fatalf("trial %d %s: view MaxCovCount = (%d,%d), reference (%d,%d)",
						trial, stage, gotN, gotC, wantN, wantC)
				}
			}
		}
		ops := 40 + rng.Intn(100)
		for op := 0; op < ops; op++ {
			switch rng.Intn(5) {
			case 0, 1: // grow both stores with the same set
				set := randomSet(rng, n, 5)
				c.Add(set)
				u.Add(set)
			case 2: // cover through the collection (and the view, if live)
				node := rng.Int31n(n)
				c.CoverBy(node)
				if v != nil {
					v.CoverBy(node)
				}
			case 3: // create or advance the view over a universe prefix
				if v == nil {
					synced = u.Size()
					v = NewViewPrefix(u, synced)
				} else {
					v.Sync()
					synced = v.Size()
				}
				_ = synced
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
	c := NewCollection(6)
	c.Add([]int32{1, 2})
	if node, count := c.MaxCovCount(func(int32) bool { return false }); node != -1 || count != 0 {
		t.Errorf("nothing eligible: got (%d,%d), want (-1,0)", node, count)
	}
	c.CoverBy(1) // all counts back to zero
	if node, count := c.MaxCovCount(func(v int32) bool { return v >= 3 }); node != 3 || count != 0 {
		t.Errorf("all-zero counts: got (%d,%d), want (3,0)", node, count)
	}
}

// TestResetCoverageRestoresPristine: after arbitrary covers,
// ResetCoverage must restore exactly the state of a never-covered twin.
func TestResetCoverageRestoresPristine(t *testing.T) {
	rng := xrand.New(77)
	const n = 25
	a := NewCollection(n)
	b := NewCollection(n)
	for i := 0; i < 60; i++ {
		set := randomSet(rng, n, 4)
		a.Add(set)
		b.Add(set)
	}
	for i := 0; i < 10; i++ {
		a.CoverBy(rng.Int31n(n))
	}
	a.ResetCoverage()
	if a.NumCovered() != 0 {
		t.Fatalf("NumCovered = %d after ResetCoverage", a.NumCovered())
	}
	for v := int32(0); v < n; v++ {
		if a.CovCount(v) != b.CovCount(v) {
			t.Fatalf("CovCount(%d) = %d after reset, want %d", v, a.CovCount(v), b.CovCount(v))
		}
	}
	an, ac := a.MaxCovCount(nil)
	bn, bc := b.MaxCovCount(nil)
	if an != bn || ac != bc {
		t.Fatalf("MaxCovCount after reset (%d,%d) != pristine (%d,%d)", an, ac, bn, bc)
	}
}

// TestWarmArenaSamplingAllocationFree pins the tentpole's allocation
// contract: once the arenas are warm (a cold pass with headroom has
// grown every buffer), refilling a collection through the single-worker
// stream performs zero heap allocations — no per-set slices, no
// per-node index growth, no bucket-queue growth.
func TestWarmArenaSamplingAllocationFree(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, xrand.New(8))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.2
	}
	pool := NewPool(g, PoolOptions{Workers: 1, BatchSize: 64})
	s := pool.NewStream(NewSampleProbs(g, probs), 21)
	c := NewCollection(g.NumNodes())
	const count = 1500
	// Cold pass with 3× headroom: every arena, the stream's batch
	// buffers and the bucket queue's head table reach their steady-state
	// capacity here.
	c.AddFromParallel(s, 3*count)
	allocs := testing.AllocsPerRun(4, func() {
		c.Reset()
		c.AddFromParallel(s, count)
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
	c := NewCollection(g.NumNodes())
	c.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), 33), 4000)
	next := int32(0)
	allocs := testing.AllocsPerRun(20, func() {
		c.CoverBy(next % g.NumNodes())
		next++
	})
	if allocs != 0 {
		t.Errorf("CoverBy allocated %.1f times per call, want 0", allocs)
	}
}
