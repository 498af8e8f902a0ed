package cascade

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func lineGraph(p float32) (*graph.Graph, []float32) {
	b := graph.NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	return g, []float32{p, p}
}

func TestRunOnceDeterministicEdges(t *testing.T) {
	g, probs := lineGraph(1.0)
	sim := NewSimulator(g, probs)
	rng := xrand.New(1)
	if got := sim.RunOnce([]int32{0}, rng); got != 3 {
		t.Errorf("p=1 cascade from 0 activated %d, want 3", got)
	}
	g2, probs2 := lineGraph(0.0)
	sim2 := NewSimulator(g2, probs2)
	if got := sim2.RunOnce([]int32{0}, rng); got != 1 {
		t.Errorf("p=0 cascade from 0 activated %d, want 1", got)
	}
}

func TestRunOnceDuplicateSeeds(t *testing.T) {
	g, probs := lineGraph(0.0)
	sim := NewSimulator(g, probs)
	if got := sim.RunOnce([]int32{0, 0, 0}, xrand.New(2)); got != 1 {
		t.Errorf("duplicate seeds counted %d times", got)
	}
}

func TestSpreadLineGraphExactValue(t *testing.T) {
	// σ({0}) on 0->1->2 with prob p each: 1 + p + p².
	const p = 0.5
	g, probs := lineGraph(p)
	sim := NewSimulator(g, probs)
	got := sim.Spread([]int32{0}, 200000, 1, 3)
	want := 1 + p + p*p
	if math.Abs(got-want) > 0.02 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestExactSpreadLineGraph(t *testing.T) {
	const p = 0.37
	g, probs := lineGraph(float32(p))
	got := ExactSpread(g, probs, []int32{0})
	want := 1 + p + p*p
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("exact spread = %v, want %v", got, want)
	}
}

func TestExactSpreadDiamond(t *testing.T) {
	// 0->1, 0->2, 1->3, 2->3, all prob 0.5.
	b := graph.NewBuilder(4, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	probs := []float32{0.5, 0.5, 0.5, 0.5}
	got := ExactSpread(g, probs, []int32{0})
	// E = 1 + P(1) + P(2) + P(3). P(1)=P(2)=0.5.
	// P(3) = P(at least one of the two length-2 paths live)
	//      = 1 - (1-0.25)^2 = 0.4375.
	want := 1 + 0.5 + 0.5 + 0.4375
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("exact diamond spread = %v, want %v", got, want)
	}
}

// Monte-Carlo estimates must converge to the exact enumeration on random
// tiny graphs.
func TestSpreadMatchesExact(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 5; trial++ {
		n := int32(5 + rng.Intn(3))
		b := graph.NewBuilder(n, 10)
		edges := 0
		for edges < 10 {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v {
				b.AddEdge(u, v)
				edges++
			}
		}
		g := b.Build()
		probs := make([]float32, g.NumEdges())
		for i := range probs {
			probs[i] = float32(rng.Float64() * 0.8)
		}
		seeds := []int32{rng.Int31n(n)}
		exact := ExactSpread(g, probs, seeds)
		sim := NewSimulator(g, probs)
		mc := sim.Spread(seeds, 100000, 2, rng.Uint64())
		if math.Abs(mc-exact) > 0.05*math.Max(1, exact) {
			t.Errorf("trial %d: MC %v vs exact %v", trial, mc, exact)
		}
	}
}

func TestSpreadMonotoneInSeeds(t *testing.T) {
	// Adding a seed can only increase the spread estimate in expectation.
	rng := xrand.New(5)
	b := graph.NewBuilder(20, 60)
	for i := 0; i < 60; i++ {
		b.AddEdge(rng.Int31n(20), rng.Int31n(20))
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.2
	}
	sim := NewSimulator(g, probs)
	s1 := sim.Spread([]int32{0}, 20000, 1, 6)
	s2 := sim.Spread([]int32{0, 1}, 20000, 1, 6)
	if s2 < s1-0.1 {
		t.Errorf("spread decreased when adding seed: %v -> %v", s1, s2)
	}
}

// TestEstimatorsWorkersIdentity pins the seeding rule of the three
// Monte-Carlo estimators against hand-written sequential loops — run r
// of Spread and Engagements draws from xrand.SlotSeed(seed, r), node u's
// runs in SingletonSpreads from xrand.SlotSeed(seed, u) — and checks
// that every workers setting, including fewer items than workers,
// returns the same bits.
func TestEstimatorsWorkersIdentity(t *testing.T) {
	rng := xrand.New(7)
	b := graph.NewBuilder(50, 200)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Int31n(50), rng.Int31n(50))
	}
	g := b.Build()
	wc := topic.NewWeightedCascade(g).EdgeProbs(topic.Distribution{1})
	flat := make([]float32, g.NumEdges())
	for i := range flat {
		flat[i] = 0.3
	}
	const runs, singletonRuns, seed = 301, 20, 9
	seeds := []int32{0, 1, 2}
	sets := [][]int32{{0, 1}, {2}}

	ref := NewSimulator(g, wc)
	total := 0
	for r := 0; r < runs; r++ {
		total += ref.RunOnce(seeds, xrand.New(xrand.SlotSeed(seed, r)))
	}
	wantSpread := float64(total) / runs
	wantSingle := make([]float64, g.NumNodes())
	for u := range wantSingle {
		urng := xrand.New(xrand.SlotSeed(seed, u))
		total := 0
		for r := 0; r < singletonRuns; r++ {
			total += ref.RunOnce([]int32{int32(u)}, urng)
		}
		wantSingle[u] = float64(total) / singletonRuns
	}
	multi := NewMultiAdSimulator(g, [][]float32{wc, flat})
	wantEng := make([]float64, len(sets))
	for r := 0; r < runs; r++ {
		for i, c := range multi.RunOnce(sets, xrand.New(xrand.SlotSeed(seed, r))) {
			wantEng[i] += float64(c)
		}
	}
	for i := range wantEng {
		wantEng[i] /= runs
	}

	for _, workers := range []int{1, 2, 3, 4, 64} {
		if got := NewSimulator(g, wc).Spread(seeds, runs, workers, seed); got != wantSpread {
			t.Errorf("workers=%d: Spread %v, want %v", workers, got, wantSpread)
		}
		for u, got := range SingletonSpreads(g, wc, singletonRuns, workers, seed) {
			if got != wantSingle[u] {
				t.Errorf("workers=%d: SingletonSpreads[%d] %v, want %v", workers, u, got, wantSingle[u])
			}
		}
		for i, got := range multi.Engagements(sets, runs, workers, seed) {
			if got != wantEng[i] {
				t.Errorf("workers=%d: Engagements[%d] %v, want %v", workers, i, got, wantEng[i])
			}
		}
	}
}

// TestSpreadParallelAgrees checks that Spread's multi-worker path, on a
// different seed, estimates the same spread as a single-worker run.
func TestSpreadParallelAgrees(t *testing.T) {
	rng := xrand.New(7)
	b := graph.NewBuilder(50, 200)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Int31n(50), rng.Int31n(50))
	}
	g := b.Build()
	m := topic.NewWeightedCascade(g)
	probs := m.EdgeProbs(topic.Distribution{1})
	sim := NewSimulator(g, probs)
	seq := sim.Spread([]int32{0, 1, 2}, 40000, 1, 8)
	par := sim.Spread([]int32{0, 1, 2}, 40000, 4, 9)
	if math.Abs(seq-par) > 0.05*math.Max(1, seq) {
		t.Errorf("parallel %v vs sequential %v", par, seq)
	}
}

func TestSpreadParallelDeterministic(t *testing.T) {
	g, probs := lineGraph(0.5)
	sim := NewSimulator(g, probs)
	a := sim.Spread([]int32{0}, 1000, 4, 10)
	b := sim.Spread([]int32{0}, 1000, 4, 10)
	if a != b {
		t.Errorf("parallel spread not deterministic: %v vs %v", a, b)
	}
}

func TestSingletonSpreads(t *testing.T) {
	g, probs := lineGraph(1.0)
	s := SingletonSpreads(g, probs, 100, 2, 11)
	want := []float64{3, 2, 1}
	for u := range want {
		if math.Abs(s[u]-want[u]) > 1e-9 {
			t.Errorf("singleton spread of %d = %v, want %v", u, s[u], want[u])
		}
	}
}

func TestExactSpreadPanicsOnLargeGraph(t *testing.T) {
	rng := xrand.New(12)
	b := graph.NewBuilder(30, 30)
	added := 0
	for added < 30 {
		u, v := rng.Int31n(30), rng.Int31n(30)
		if u != v {
			b.AddEdge(u, v)
			added++
		}
	}
	g := b.Build()
	if g.NumEdges() <= 24 {
		t.Skip("random graph too small after dedup")
	}
	probs := make([]float32, g.NumEdges())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for > 24 edges")
		}
	}()
	ExactSpread(g, probs, []int32{0})
}

func TestNewSimulatorPanicsOnMismatch(t *testing.T) {
	g, _ := lineGraph(0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for probs length mismatch")
		}
	}()
	NewSimulator(g, []float32{0.5})
}
