package rrset

import (
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
