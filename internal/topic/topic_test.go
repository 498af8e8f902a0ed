package topic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func line3() *graph.Graph {
	b := graph.NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	return b.Build()
}

func TestDistributionValidate(t *testing.T) {
	if err := (Distribution{0.5, 0.5}).Validate(); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
	if err := (Distribution{0.5, 0.6}).Validate(); err == nil {
		t.Error("over-unit distribution accepted")
	}
	if err := (Distribution{-0.1, 1.1}).Validate(); err == nil {
		t.Error("negative component accepted")
	}
	if err := (Distribution{math.NaN(), 1}).Validate(); err == nil {
		t.Error("NaN component accepted")
	}
}

func TestEntropy(t *testing.T) {
	if e := (Distribution{1, 0}).Entropy(); e != 0 {
		t.Errorf("point mass entropy = %v, want 0", e)
	}
	uniform := Distribution{0.25, 0.25, 0.25, 0.25}
	if got, want := uniform.Entropy(), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform entropy = %v, want %v", got, want)
	}
}

func TestPointMassAndPeaked(t *testing.T) {
	pk := Peaked(10, 3, 0.91)
	if err := pk.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(pk[3]-0.91) > 1e-12 {
		t.Errorf("peak = %v, want 0.91", pk[3])
	}
	if math.Abs(pk[0]-0.01) > 1e-12 {
		t.Errorf("off-peak = %v, want 0.01", pk[0])
	}
	if got := Peaked(1, 0, 0.91); got[0] != 1 {
		t.Error("Peaked with L=1 must be the point mass")
	}
}

func TestWeightedCascade(t *testing.T) {
	b := graph.NewBuilder(4, 3)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3) // indeg(3) = 3
	g := b.Build()
	m := NewWeightedCascade(g)
	if m.NumTopics() != 1 {
		t.Fatalf("WC topics = %d, want 1", m.NumTopics())
	}
	g.Edges(func(u, v int32, e int64) bool {
		want := 1.0 / 3.0
		if math.Abs(m.Prob(0, e)-want) > 1e-6 {
			t.Errorf("WC prob on (%d,%d) = %v, want %v", u, v, m.Prob(0, e), want)
		}
		return true
	})
}

func TestUniformIC(t *testing.T) {
	g := line3()
	m := NewUniformIC(g, 0.42)
	for e := int64(0); e < g.NumEdges(); e++ {
		if math.Abs(m.Prob(0, e)-0.42) > 1e-6 {
			t.Errorf("uniform prob = %v, want 0.42", m.Prob(0, e))
		}
	}
}

func TestEdgeProbsMixing(t *testing.T) {
	g := line3()
	// Two topics with known probabilities per edge.
	m := FromProbs(g, [][]float32{{0.2, 0.4}, {0.6, 0.8}})
	gamma := Distribution{0.25, 0.75}
	probs := m.EdgeProbs(gamma)
	want := []float64{0.25*0.2 + 0.75*0.6, 0.25*0.4 + 0.75*0.8}
	for e := range want {
		if math.Abs(float64(probs[e])-want[e]) > 1e-6 {
			t.Errorf("edge %d mixed prob = %v, want %v", e, probs[e], want[e])
		}
	}
}

func TestEdgeProbsSingleTopicAliases(t *testing.T) {
	g := line3()
	m := NewUniformIC(g, 0.3)
	p1 := m.EdgeProbs(Distribution{1})
	p2 := m.EdgeProbs(Distribution{1})
	if &p1[0] != &p2[0] {
		t.Error("L=1 EdgeProbs should alias model storage (no copy)")
	}
}

func TestEdgeProbsDimensionPanic(t *testing.T) {
	g := line3()
	m := NewUniformIC(g, 0.3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for gamma dimension mismatch")
		}
	}()
	m.EdgeProbs(Distribution{0.5, 0.5})
}

// Property: mixed probabilities are convex combinations, hence bounded by
// the per-topic min and max.
func TestEdgeProbsConvexity(t *testing.T) {
	g := line3()
	rng := xrand.New(3)
	m := NewTICRandom(g, TICParams{
		L: 4, Activity: 1, Levels: []float32{0.1, 0.5}, Weights: []float64{0.5, 0.5},
	}, rng)
	f := func(a, b, c, d uint8) bool {
		raw := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1}
		var sum float64
		for _, x := range raw {
			sum += x
		}
		gamma := make(Distribution, 4)
		for i := range gamma {
			gamma[i] = raw[i] / sum
		}
		probs := m.EdgeProbs(gamma)
		for e := int64(0); e < g.NumEdges(); e++ {
			lo, hi := 1.0, 0.0
			for z := 0; z < 4; z++ {
				p := m.Prob(z, e)
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
			if float64(probs[e]) < lo-1e-6 || float64(probs[e]) > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTICRandomSparsity(t *testing.T) {
	rng := xrand.New(4)
	b := graph.NewBuilder(100, 1000)
	for i := 0; i < 1000; i++ {
		b.AddEdge(rng.Int31n(100), rng.Int31n(100))
	}
	g := b.Build()
	m := NewTICRandom(g, TICParams{
		L: 3, Activity: 0.5, Levels: []float32{0.1}, Weights: []float64{1},
	}, rng)
	for z := 0; z < 3; z++ {
		active := 0
		for e := int64(0); e < g.NumEdges(); e++ {
			if m.Prob(z, e) > 0 {
				active++
			}
		}
		frac := float64(active) / float64(g.NumEdges())
		if frac < 0.35 || frac > 0.65 {
			t.Errorf("topic %d activity %v, want ~0.5", z, frac)
		}
	}
}

func TestCompetingAds(t *testing.T) {
	rng := xrand.New(5)
	ads := CompetingAds(10, 10, rng)
	if len(ads) != 10 {
		t.Fatalf("got %d ads, want 10", len(ads))
	}
	for i, ad := range ads {
		if ad.ID != i {
			t.Errorf("ad %d has ID %d", i, ad.ID)
		}
		if err := ad.Gamma.Validate(); err != nil {
			t.Errorf("ad %d gamma invalid: %v", i, err)
		}
	}
	// Paired ads share distributions; distinct pairs differ.
	for i := 0; i+1 < 10; i += 2 {
		for z := range ads[i].Gamma {
			if ads[i].Gamma[z] != ads[i+1].Gamma[z] {
				t.Errorf("pair (%d,%d) not in pure competition", i, i+1)
			}
		}
	}
	distinctPairs := map[int]bool{}
	for i := 0; i < 10; i += 2 {
		peak := 0
		for z, p := range ads[i].Gamma {
			if p > ads[i].Gamma[peak] {
				peak = z
			}
			_ = p
		}
		distinctPairs[peak] = true
	}
	if len(distinctPairs) != 5 {
		t.Errorf("expected 5 distinct peak topics, got %d", len(distinctPairs))
	}
}

func TestCompetingAdsSingleTopic(t *testing.T) {
	ads := CompetingAds(4, 1, xrand.New(6))
	for _, ad := range ads {
		if len(ad.Gamma) != 1 || ad.Gamma[0] != 1 {
			t.Errorf("L=1 ad gamma = %v, want [1]", ad.Gamma)
		}
	}
}

func TestAssignBudgets(t *testing.T) {
	rng := xrand.New(7)
	ads := CompetingAds(10, 10, rng)
	p := FlixsterBudgets()
	AssignBudgets(ads, p, rng)
	for _, ad := range ads {
		if ad.Budget < p.MinBudget || ad.Budget > p.MaxBudget {
			t.Errorf("budget %v outside [%v,%v]", ad.Budget, p.MinBudget, p.MaxBudget)
		}
		if ad.CPE < p.MinCPE || ad.CPE > p.MaxCPE {
			t.Errorf("cpe %v outside [%v,%v]", ad.CPE, p.MinCPE, p.MaxCPE)
		}
		if err := ad.Validate(10); err != nil {
			t.Errorf("ad invalid after budget assignment: %v", err)
		}
	}
}

func TestUniformBudgets(t *testing.T) {
	ads := CompetingAds(3, 1, xrand.New(8))
	UniformBudgets(ads, 1000, 1)
	for _, ad := range ads {
		if ad.Budget != 1000 || ad.CPE != 1 {
			t.Errorf("uniform budgets not applied: %+v", ad)
		}
	}
}

func TestAdValidate(t *testing.T) {
	ok := Ad{ID: 0, Gamma: Distribution{1}, CPE: 1, Budget: 100}
	if err := ok.Validate(1); err != nil {
		t.Errorf("valid ad rejected: %v", err)
	}
	bad := []Ad{
		{ID: 1, Gamma: Distribution{0.5, 0.5}, CPE: 1, Budget: 1}, // wrong L
		{ID: 2, Gamma: Distribution{1}, CPE: 0, Budget: 1},        // zero cpe
		{ID: 3, Gamma: Distribution{1}, CPE: 1, Budget: 0},        // zero budget
	}
	for _, ad := range bad {
		if err := ad.Validate(1); err == nil {
			t.Errorf("invalid ad %d accepted", ad.ID)
		}
	}
}

func TestFromProbsPanics(t *testing.T) {
	g := line3()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong edge count")
		}
	}()
	FromProbs(g, [][]float32{{0.1}})
}
