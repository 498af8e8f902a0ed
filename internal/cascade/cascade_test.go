package cascade

import (
	"fmt"
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

// refSimulator is the forward kernel as it stood before the
// state-in-locals rewrite: its RunOnce body is that kernel's, verbatim,
// kept as the oracle RunOnce must match draw for draw.
type refSimulator struct {
	g       *graph.Graph
	probs   []float32
	visited []int64
	epoch   int64
	queue   []int32
}

func newRefSimulator(g *graph.Graph, probs []float32) *refSimulator {
	return &refSimulator{g: g, probs: probs, visited: make([]int64, g.NumNodes()), queue: make([]int32, 0, 256)}
}

func (s *refSimulator) RunOnce(seeds []int32, rng *xrand.RNG) int {
	s.epoch++
	q := s.queue[:0]
	activated := 0
	for _, u := range seeds {
		if s.visited[u] == s.epoch {
			continue
		}
		s.visited[u] = s.epoch
		q = append(q, u)
		activated++
	}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		lo, hi := s.g.OutEdgeRange(u)
		nb := s.g.OutNeighbors(u)
		for i, v := range nb {
			if s.visited[v] == s.epoch {
				continue
			}
			p := s.probs[lo+int64(i)]
			_ = hi
			if p > 0 && rng.Float64() < float64(p) {
				s.visited[v] = s.epoch
				q = append(q, v)
				activated++
			}
		}
	}
	s.queue = q[:0]
	return activated
}

// refMultiAdSimulator is the competitive round loop as it stood before
// it moved its scratch onto the simulator: RunOnce's body is verbatim.
type refMultiAdSimulator struct {
	g       *graph.Graph
	probs   [][]float32
	owner   []int32
	stamp   []int64
	epoch   int64
	claims  []int32
	claimed []int32
}

func newRefMultiAdSimulator(g *graph.Graph, probs [][]float32) *refMultiAdSimulator {
	n := g.NumNodes()
	return &refMultiAdSimulator{g: g, probs: probs, owner: make([]int32, n), stamp: make([]int64, n), claims: make([]int32, n)}
}

func (m *refMultiAdSimulator) RunOnce(seedSets [][]int32, rng *xrand.RNG) []int {
	if len(seedSets) != len(m.probs) {
		panic(fmt.Sprintf("cascade: %d seed sets for %d ads", len(seedSets), len(m.probs)))
	}
	m.epoch++
	counts := make([]int, len(seedSets))
	var frontier []frontierEntry
	for ad, seeds := range seedSets {
		for _, u := range seeds {
			if m.stamp[u] == m.epoch {
				panic(fmt.Sprintf("cascade: node %d seeded for two ads", u))
			}
			m.stamp[u] = m.epoch
			m.owner[u] = int32(ad)
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: u, ad: int32(ad)})
		}
	}
	// claims[v] holds, during a round, the number of successful attempts
	// on v; the adopted ad is reservoir-sampled among them so each
	// succeeding ad wins with equal probability.
	winner := make(map[int32]int32)
	for len(frontier) > 0 {
		m.claimed = m.claimed[:0]
		for k := range winner {
			delete(winner, k)
		}
		for _, fe := range frontier {
			probs := m.probs[fe.ad]
			lo, _ := m.g.OutEdgeRange(fe.node)
			for i, v := range m.g.OutNeighbors(fe.node) {
				if m.stamp[v] == m.epoch {
					continue // already engaged in an earlier round
				}
				p := probs[lo+int64(i)]
				if p <= 0 || rng.Float64() >= float64(p) {
					continue
				}
				if m.claims[v] == 0 {
					m.claimed = append(m.claimed, v)
				}
				m.claims[v]++
				// Reservoir sampling over successful attempts.
				if rng.Intn(int(m.claims[v])) == 0 {
					winner[v] = fe.ad
				}
			}
		}
		frontier = frontier[:0]
		for _, v := range m.claimed {
			m.claims[v] = 0
			ad := winner[v]
			m.stamp[v] = m.epoch
			m.owner[v] = ad
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: v, ad: ad})
		}
	}
	return counts
}

// probClass maps a byte onto the probabilities a kernel must treat
// alike: 0, a negative p, NaN, 1, and values inside (0, 1).
func probClass(b byte) float32 {
	switch b % 5 {
	case 0:
		return 0
	case 1:
		return -0.5
	case 2:
		return float32(math.NaN())
	case 3:
		return 1
	}
	return float32(b/5+1) / 53
}

// kernelCase builds a kernel test case from raw bytes: 1 + n%32 nodes;
// one arc per byte pair of arcs, self-loops and repeats included (the
// Builder drops both, so the graph holds neither); two ads' arc
// probabilities, arc e of ad a from probClass(ps[(e+a) % len(ps)]), or
// 0.5 when ps is empty; and seeds from seedBytes: every byte's node,
// duplicates included, for the one-ad kernel, and each node's first
// appearance dealt alternately into two disjoint sets for the multi-ad
// kernel.
func kernelCase(n uint8, arcs, ps, seedBytes []byte) (*graph.Graph, [][]float32, []int32, [][]int32) {
	nodes := int32(n%32) + 1
	b := graph.NewBuilder(nodes, len(arcs)/2)
	for i := 0; i+1 < len(arcs); i += 2 {
		b.AddEdge(int32(arcs[i])%nodes, int32(arcs[i+1])%nodes)
	}
	g := b.Build()
	probs := make([][]float32, 2)
	for a := range probs {
		probs[a] = make([]float32, g.NumEdges())
		for e := range probs[a] {
			probs[a][e] = 0.5
			if len(ps) > 0 {
				probs[a][e] = probClass(ps[(e+a)%len(ps)])
			}
		}
	}
	var seeds []int32
	sets := make([][]int32, 2)
	dealt := make([]bool, nodes)
	for _, sb := range seedBytes {
		u := int32(sb) % nodes
		seeds = append(seeds, u)
		if !dealt[u] {
			dealt[u] = true
			sets[len(seeds)%2] = append(sets[len(seeds)%2], u)
		}
	}
	return g, probs, seeds, sets
}

// checkKernelsMatchReference runs both kernels and their oracles side
// by side for runs runs from one RNG seed, and after every run checks
// the counts and the next Uint64 of each RNG pair: equal counts and an
// equal next draw show that the same draws were consumed.
func checkKernelsMatchReference(t *testing.T, g *graph.Graph, probs [][]float32, seeds []int32, sets [][]int32, seed uint64, runs int) {
	t.Helper()
	ref, sim := newRefSimulator(g, probs[0]), NewSimulator(g, probs[0])
	a, b := xrand.New(seed), xrand.New(seed)
	for r := 0; r < runs; r++ {
		want, got := ref.RunOnce(seeds, a), sim.RunOnce(seeds, b)
		if got != want {
			t.Fatalf("run %d from %v: RunOnce activated %d, reference %d", r, seeds, got, want)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("run %d from %v: RunOnce left the RNG at %#x, reference at %#x", r, seeds, y, x)
		}
	}
	refM, m := newRefMultiAdSimulator(g, probs), NewMultiAdSimulator(g, probs)
	counts := make([]int64, len(probs))
	for r := 0; r < runs; r++ {
		want := refM.RunOnce(sets, a)
		clear(counts)
		m.run(sets, b, counts)
		for i := range counts {
			if counts[i] != int64(want[i]) {
				t.Fatalf("run %d from %v: multi-ad counts %v, reference %v", r, sets, counts, want)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("run %d from %v: multi-ad kernel left the RNG at %#x, reference at %#x", r, sets, y, x)
		}
	}
}

// TestRunOnceMatchesReference checks both forward kernels against their
// earlier forms (the oracles above) on random graphs, probabilities
// from every class of probClass and seed lists with duplicates.
func TestRunOnceMatchesReference(t *testing.T) {
	rng := xrand.New(13)
	bytes := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Uint64())
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		g, probs, seeds, sets := kernelCase(byte(rng.Uint64()), bytes(rng.Intn(300)), bytes(1+rng.Intn(40)), bytes(rng.Intn(8)))
		checkKernelsMatchReference(t, g, probs, seeds, sets, rng.Uint64(), 16)
	}
}

func FuzzRunOnce(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 2, 2, 0, 3, 4, 0, 1}, []byte{0, 1, 2, 3, 4, 9}, []byte{0, 0, 3}, uint64(1))
	f.Add(uint8(31), []byte{7, 9, 9, 7, 1, 30, 30, 2}, []byte{3}, []byte{7, 30}, uint64(1)<<63)
	f.Add(uint8(0), []byte{}, []byte{}, []byte{0}, uint64(0))
	f.Fuzz(func(t *testing.T, n uint8, arcs, ps, seeds []byte, seed uint64) {
		g, probs, ss, sets := kernelCase(n, arcs, ps, seeds)
		checkKernelsMatchReference(t, g, probs, ss, sets, seed, 8)
	})
}

// TestKernelsAllocationFree checks that, once its scratch has grown to
// the largest run, neither forward kernel allocates.
func TestKernelsAllocationFree(t *testing.T) {
	rng := xrand.New(14)
	b := graph.NewBuilder(300, 1500)
	for i := 0; i < 1500; i++ {
		b.AddEdge(rng.Int31n(300), rng.Int31n(300))
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.1
	}
	sim := NewSimulator(g, probs)
	m := NewMultiAdSimulator(g, [][]float32{probs, probs})
	seeds, sets := []int32{0, 1, 2, 3, 4}, [][]int32{{0, 1, 2}, {3, 4}}
	counts := make([]int64, 2)
	for i := 0; i < 1000; i++ {
		sim.RunOnce(seeds, rng)
		m.run(sets, rng, counts)
	}
	if a := testing.AllocsPerRun(1000, func() { sim.RunOnce(seeds, rng) }); a != 0 {
		t.Errorf("Simulator.RunOnce allocated %.2f times per run, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { m.run(sets, rng, counts) }); a != 0 {
		t.Errorf("the multi-ad kernel allocated %.2f times per run, want 0", a)
	}
}
