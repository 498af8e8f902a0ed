package rrset

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func line3(p float32) (*graph.Graph, []float32) {
	b := graph.NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	return g, []float32{p, p}
}

func TestSampleStructure(t *testing.T) {
	g, probs := line3(1.0)
	s := NewSampler(g, probs, xrand.New(1))
	for i := 0; i < 50; i++ {
		nodes, width := s.Sample()
		if len(nodes) == 0 {
			t.Fatal("empty RR set")
		}
		// With p=1, the RR set of target w is every ancestor of w:
		// target 0 -> {0}, 1 -> {1,0}, 2 -> {2,1,0}.
		target := nodes[0]
		if len(nodes) != int(target)+1 {
			t.Errorf("target %d: RR set %v, want size %d", target, nodes, target+1)
		}
		var wantWidth int64
		for _, v := range nodes {
			wantWidth += int64(g.InDegree(v))
		}
		if width != wantWidth {
			t.Errorf("width = %d, want %d", width, wantWidth)
		}
	}
}

func TestSampleZeroProb(t *testing.T) {
	g, probs := line3(0.0)
	s := NewSampler(g, probs, xrand.New(2))
	for i := 0; i < 20; i++ {
		nodes, _ := s.Sample()
		if len(nodes) != 1 {
			t.Fatalf("p=0 RR set has %d nodes, want 1", len(nodes))
		}
	}
}

// The fundamental RR identity: E[n · 1{S ∩ R ≠ ∅}] = σ(S). Verify the
// spread estimate against exact possible-world enumeration.
func TestSpreadEstimateUnbiased(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 4; trial++ {
		n := int32(5 + rng.Intn(3))
		b := graph.NewBuilder(n, 10)
		added := 0
		for added < 10 {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v {
				b.AddEdge(u, v)
				added++
			}
		}
		g := b.Build()
		probs := make([]float32, g.NumEdges())
		for i := range probs {
			probs[i] = float32(rng.Float64() * 0.7)
		}
		seeds := []int32{rng.Int31n(n), rng.Int31n(n)}
		exact := cascade.ExactSpread(g, probs, seeds)

		u := NewUniverse(n)
		u.AddFrom(NewSampler(g, probs, rng.Split()), 60000)
		v := NewView(u)
		for _, s := range seeds {
			v.CoverBy(s)
		}
		est := float64(n) * float64(v.NumCovered()) / float64(v.Size())
		if math.Abs(est-exact) > 0.06*math.Max(1, exact) {
			t.Errorf("trial %d: RR estimate %v vs exact %v", trial, est, exact)
		}
	}
}

func TestViewCoverage(t *testing.T) {
	u := NewUniverse(4)
	u.Add([]int32{0, 1})
	u.Add([]int32{1, 2})
	u.Add([]int32{3})
	view := NewView(u)
	if view.Size() != 3 {
		t.Fatalf("Size = %d, want 3", view.Size())
	}
	if view.CovCount(1) != 2 || view.CovCount(0) != 1 || view.CovCount(3) != 1 {
		t.Fatalf("initial covCounts wrong: %d %d %d", view.CovCount(1), view.CovCount(0), view.CovCount(3))
	}
	newly := view.CoverBy(1)
	if newly != 2 {
		t.Errorf("CoverBy(1) covered %d sets, want 2", newly)
	}
	if view.NumCovered() != 2 {
		t.Errorf("NumCovered = %d, want 2", view.NumCovered())
	}
	// Node 0 and 2 lose their sets; node 3 unaffected.
	if view.CovCount(0) != 0 || view.CovCount(2) != 0 || view.CovCount(3) != 1 {
		t.Errorf("covCounts after cover: %d %d %d", view.CovCount(0), view.CovCount(2), view.CovCount(3))
	}
	// Covering again is a no-op.
	if again := view.CoverBy(1); again != 0 {
		t.Errorf("re-CoverBy(1) covered %d sets, want 0", again)
	}
}

func TestMaxCovCount(t *testing.T) {
	u := NewUniverse(4)
	u.Add([]int32{0, 1})
	u.Add([]int32{1, 2})
	u.Add([]int32{1})
	view := NewView(u)
	node, count := view.MaxCovCount(nil)
	if node != 1 || count != 3 {
		t.Errorf("MaxCovCount = (%d,%d), want (1,3)", node, count)
	}
	node, count = view.MaxCovCount(func(v int32) bool { return v != 1 })
	if node == 1 || count != 1 {
		t.Errorf("MaxCovCount excluding 1 = (%d,%d), want count 1", node, count)
	}
	node, _ = view.MaxCovCount(func(v int32) bool { return false })
	if node != -1 {
		t.Errorf("MaxCovCount with nothing eligible = %d, want -1", node)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Threshold grows with s and shrinks with eps and optS.
	base := Threshold(1000, 5, 0.1, 1, 50)
	if Threshold(1000, 10, 0.1, 1, 50) <= base {
		t.Error("threshold should grow with s")
	}
	if Threshold(1000, 5, 0.3, 1, 50) >= base {
		t.Error("threshold should shrink with eps")
	}
	if Threshold(1000, 5, 0.1, 1, 500) >= base {
		t.Error("threshold should shrink with optS")
	}
	if Threshold(2000, 5, 0.1, 1, 50) <= base {
		t.Error("threshold should grow with n")
	}
}

func TestThresholdValue(t *testing.T) {
	// Hand-computed: n=100, s=1, eps=0.5, ell=1, optS=10.
	// (8+1)*100*(ln100 + ln100 + ln2)/(10*0.25)
	want := 9.0 * 100 * (math.Log(100) + math.Log(100) + math.Log(2)) / 2.5
	got := Threshold(100, 1, 0.5, 1, 10)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Threshold = %v, want %v", got, want)
	}
}

func TestThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero optS")
		}
	}()
	Threshold(10, 1, 0.1, 1, 0)
}

// KPT must lower-bound OPT_s (up to estimation noise) and stay positive.
func TestKptEstimateBounds(t *testing.T) {
	rng := xrand.New(4)
	b := graph.NewBuilder(64, 256)
	for i := 0; i < 256; i++ {
		b.AddEdge(rng.Int31n(64), rng.Int31n(64))
	}
	g := b.Build()
	m := topic.NewWeightedCascade(g)
	probs := m.EdgeProbs(topic.Distribution{1})

	const s = 4
	kpt := KptEstimate(NewSampler(g, probs, rng.Split()), g.NumEdges(), int64(g.NumNodes()), s, 1)
	if kpt < 1 {
		t.Fatalf("KPT = %v below the trivial bound 1", kpt)
	}
	// Estimate OPT_s loosely: spread of the s highest-degree nodes is a
	// lower bound on OPT_s, and OPT_s ≤ n. KPT should not exceed n.
	if kpt > float64(g.NumNodes()) {
		t.Fatalf("KPT = %v exceeds n = %d", kpt, g.NumNodes())
	}
	// Compare against the greedy RR solution's estimated spread (a lower
	// bound on OPT_s): KPT must not be wildly above it.
	u := NewUniverse(g.NumNodes())
	u.AddFrom(NewSampler(g, probs, rng.Split()), 20000)
	view := NewView(u)
	var seeds []int32
	for i := 0; i < s; i++ {
		v, _ := view.MaxCovCount(nil)
		view.CoverBy(v)
		seeds = append(seeds, v)
	}
	greedySpread := float64(g.NumNodes()) * float64(view.NumCovered()) / float64(view.Size())
	if kpt > 1.5*greedySpread {
		t.Errorf("KPT = %v far above greedy spread %v (should lower-bound OPT_s)", kpt, greedySpread)
	}
}

func TestKptEstimateDegenerate(t *testing.T) {
	// Single node, no edges.
	g := graph.NewBuilder(1, 0).Build()
	s := NewSampler(g, nil, xrand.New(5))
	if kpt := KptEstimate(s, 0, 1, 1, 1); kpt != 1 {
		t.Errorf("degenerate KPT = %v, want 1", kpt)
	}
}

func TestMemoryFootprintGrows(t *testing.T) {
	u := NewUniverse(10)
	before := u.MemoryFootprint()
	for i := 0; i < 100; i++ {
		u.Add([]int32{0, 1, 2})
	}
	if u.MemoryFootprint() <= before {
		t.Error("memory footprint did not grow after adds")
	}
}

func TestSamplerPanicsOnMismatch(t *testing.T) {
	g, _ := line3(0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for probs length mismatch")
		}
	}()
	NewSampler(g, []float32{0.1}, xrand.New(1))
}

// Greedy max-coverage on RR sets must match the classic IM greedy: on a
// star graph the hub is picked first.
func TestGreedyPicksHub(t *testing.T) {
	b := graph.NewBuilder(10, 9)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(0, v) // hub 0 points to everyone
	}
	g := b.Build()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.5
	}
	u := NewUniverse(10)
	u.AddFrom(NewSampler(g, probs, xrand.New(6)), 5000)
	v, _ := NewView(u).MaxCovCount(nil)
	if v != 0 {
		t.Errorf("greedy picked %d, want hub 0", v)
	}
}
