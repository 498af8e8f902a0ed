package cascade

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// RunOnce simulates a single competitive propagation and returns the
// number of engagements per ad (seeds included). Seed sets must be
// pairwise disjoint. Not safe for concurrent use.
func (m *MultiAdSimulator) RunOnce(seedSets [][]int32, rng *xrand.RNG) []int64 {
	counts := make([]int64, len(m.probs))
	m.run(seedSets, rng, counts)
	return counts
}

func TestMultiAdSingleAdMatchesPlainSimulator(t *testing.T) {
	// With one ad and no competition, the multi-ad simulator must agree
	// with the plain one in expectation.
	rng := xrand.New(1)
	b := graph.NewBuilder(30, 90)
	for i := 0; i < 90; i++ {
		b.AddEdge(rng.Int31n(30), rng.Int31n(30))
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.25
	}
	seeds := []int32{0, 1}
	plain := NewSimulator(g, probs).Spread(seeds, 40000, 1, 2)
	multi := NewMultiAdSimulator(g, [][]float32{probs}).
		Engagements([][]int32{seeds}, 40000, 1, 3)
	if math.Abs(plain-multi[0]) > 0.05*math.Max(1, plain) {
		t.Errorf("multi-ad single-ad %v vs plain %v", multi[0], plain)
	}
}

func TestMultiAdHardCompetitionLine(t *testing.T) {
	// Path 0 -> 1 -> 2 with p=1 for two ads seeded at 0 and 2: ad 0's
	// cascade reaches 1 in round 1; ad 1's seed 2 has no outgoing arcs.
	b := graph.NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	ones := []float32{1, 1}
	m := NewMultiAdSimulator(g, [][]float32{ones, ones})
	counts := m.RunOnce([][]int32{{0}, {2}}, xrand.New(4))
	// Node 2 is already engaged with ad 1, so ad 0 stops at {0, 1}.
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v, want [2 1] (hard competition blocks node 2)", counts)
	}
}

func TestMultiAdConflictTieBreakFair(t *testing.T) {
	// Two hubs of different ads both point to node 2 with p=1: node 2
	// must adopt each ad ~half the time.
	b := graph.NewBuilder(3, 2)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	ones := []float32{1, 1}
	m := NewMultiAdSimulator(g, [][]float32{ones, ones})
	rng := xrand.New(5)
	wins := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts := m.RunOnce([][]int32{{0}, {1}}, rng)
		if counts[0]+counts[1] != 3 {
			t.Fatalf("total engagements %d, want 3", counts[0]+counts[1])
		}
		if counts[0] == 2 {
			wins++
		}
	}
	frac := float64(wins) / trials
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("ad 0 wins the conflict %.3f of the time, want ~0.5", frac)
	}
}

func TestMultiAdTotalNeverExceedsN(t *testing.T) {
	rng := xrand.New(6)
	b := graph.NewBuilder(40, 200)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Int31n(40), rng.Int31n(40))
	}
	g := b.Build()
	p1 := make([]float32, g.NumEdges())
	p2 := make([]float32, g.NumEdges())
	for i := range p1 {
		p1[i] = 0.5
		p2[i] = 0.3
	}
	m := NewMultiAdSimulator(g, [][]float32{p1, p2})
	for trial := 0; trial < 200; trial++ {
		counts := m.RunOnce([][]int32{{0, 1}, {2, 3}}, rng)
		total := counts[0] + counts[1]
		if total > 40 {
			t.Fatalf("engagements %d exceed node count", total)
		}
		if counts[0] < 2 || counts[1] < 2 {
			t.Fatalf("seeds not counted: %v", counts)
		}
	}
}

// Competition can only reduce each ad's engagements relative to
// independent propagation.
func TestMultiAdCompetitionReducesSpread(t *testing.T) {
	rng := xrand.New(7)
	b := graph.NewBuilder(50, 250)
	for i := 0; i < 250; i++ {
		b.AddEdge(rng.Int31n(50), rng.Int31n(50))
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.3
	}
	seeds0 := []int32{0, 1}
	seeds1 := []int32{2, 3}
	indep := NewSimulator(g, probs).Spread(seeds0, 30000, 1, 8)
	multi := NewMultiAdSimulator(g, [][]float32{probs, probs}).
		Engagements([][]int32{seeds0, seeds1}, 30000, 2, 9)
	if multi[0] > indep+0.2 {
		t.Errorf("competitive spread %v exceeds independent spread %v", multi[0], indep)
	}
}

func TestMultiAdPanicsOnOverlappingSeeds(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	ones := []float32{1}
	m := NewMultiAdSimulator(g, [][]float32{ones, ones})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for overlapping seed sets")
		}
	}()
	m.RunOnce([][]int32{{0}, {0}}, xrand.New(10))
}

func TestMultiAdParallelDeterministic(t *testing.T) {
	rng := xrand.New(11)
	b := graph.NewBuilder(30, 120)
	for i := 0; i < 120; i++ {
		b.AddEdge(rng.Int31n(30), rng.Int31n(30))
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.4
	}
	m := NewMultiAdSimulator(g, [][]float32{probs, probs})
	sets := [][]int32{{0}, {1}}
	a := m.Engagements(sets, 2000, 4, 12)
	b2 := m.Engagements(sets, 2000, 4, 12)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("parallel competitive estimate not deterministic")
		}
	}
}
