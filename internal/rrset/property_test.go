package rrset

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Property: after any sequence of CoverBy operations, every node's
// covCount equals the number of live (uncovered) sets containing it, and
// NumCovered equals the count of tombstoned sets.
func TestViewCoverageInvariant(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		rng := xrand.New(seed)
		const n = 20
		u := NewUniverse(n)
		numSets := 5 + rng.Intn(30)
		for i := 0; i < numSets; i++ {
			size := 1 + rng.Intn(4)
			seen := map[int32]bool{}
			var set []int32
			for len(set) < size {
				v := rng.Int31n(n)
				if !seen[v] {
					seen[v] = true
					set = append(set, v)
				}
			}
			u.Add(set)
		}
		c := NewView(u)
		for _, op := range ops {
			c.CoverBy(int32(op) % n)
		}
		// Recompute ground truth from scratch.
		covered := 0
		truth := make([]int32, n)
		for id := int32(0); id < int32(c.Size()); id++ {
			if c.covered.get(id) {
				covered++
				continue
			}
			for _, v := range u.Set(id) {
				truth[v]++
			}
		}
		if covered != c.NumCovered() {
			return false
		}
		for v := int32(0); v < n; v++ {
			if truth[v] != c.CovCount(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Covering every node covers every set, so the spread estimate of the
// full node set, n · NumCovered / Size, is exactly n.
func TestSpreadEstimateFullSet(t *testing.T) {
	rng := xrand.New(9)
	const n = 12
	u := NewUniverse(n)
	for i := 0; i < 200; i++ {
		u.Add([]int32{rng.Int31n(n)})
	}
	view := NewView(u)
	for v := int32(0); v < n; v++ {
		view.CoverBy(v)
	}
	if got := float64(n) * float64(view.NumCovered()) / float64(view.Size()); got != n {
		t.Errorf("full-set spread estimate = %v, want %v", got, n)
	}
}
