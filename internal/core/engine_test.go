package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// engineGadget is a tie-free variant of the Figure 1 instance for the
// RR-based engine: b gets a strictly larger singleton spread (4) so that
// TI-CARM deterministically picks it, and the budget is 7.2 so estimator
// noise around the exact-budget optimum {a, c} cannot flip feasibility.
//
// Nodes: b=0, a=1, c=2, x=3, y=4, z=5, w=6; arcs (p=1):
// b→x,y,z; a→x,y; c→z,w. Costs: c(b)=3, c(a)=c(c)=0.5, leaves 2.
// TI-CARM: {b}, revenue 4. TI-CSRM: {a,c}, revenue 6.
func engineGadget() *Problem {
	b := graph.NewBuilder(7, 7)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	b.AddEdge(0, 5)
	b.AddEdge(1, 3)
	b.AddEdge(1, 4)
	b.AddEdge(2, 5)
	b.AddEdge(2, 6)
	g := b.Build()
	costs := []float64{3, 0.5, 0.5, 2, 2, 2, 2}
	return &Problem{
		Graph:      g,
		Model:      topic.NewUniformIC(g, 1.0),
		Ads:        []topic.Ad{{ID: 0, Gamma: topic.Distribution{1}, CPE: 1, Budget: 7.2}},
		Incentives: []*incentive.Table{incentive.Build(incentive.Linear, 1, costs)},
	}
}

func TestEngineGadgetCAvsCS(t *testing.T) {
	p := engineGadget()
	ca, caStats, err := solveFresh(p, Options{Mode: ModeCostAgnostic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Seeds[0]) != 1 || ca.Seeds[0][0] != 0 {
		t.Errorf("TI-CARM seeds = %v, want [b=0]", ca.Seeds[0])
	}
	if math.Abs(ca.TotalRevenue()-4) > 0.3 {
		t.Errorf("TI-CARM revenue = %v, want ≈4", ca.TotalRevenue())
	}

	cs, csStats, err := solveFresh(p, Options{Mode: ModeCostSensitive, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int32]bool{}
	for _, u := range cs.Seeds[0] {
		got[u] = true
	}
	if !got[1] || !got[2] || len(got) != 2 {
		t.Errorf("TI-CSRM seeds = %v, want {a=1, c=2}", cs.Seeds[0])
	}
	if math.Abs(cs.TotalRevenue()-6) > 0.3 {
		t.Errorf("TI-CSRM revenue = %v, want ≈6", cs.TotalRevenue())
	}
	if cs.TotalRevenue() <= ca.TotalRevenue() {
		t.Error("cost-sensitive should beat cost-agnostic on the gadget")
	}
	if caStats.Theta[0] <= 0 || csStats.Theta[0] <= 0 {
		t.Error("theta not recorded")
	}
}

// Independent Monte-Carlo evaluation must agree with the engine's own
// estimates on the gadget.
func TestEvaluateAgreesWithEngine(t *testing.T) {
	p := engineGadget()
	eng := engineFor(p, 1)
	cs, _, err := eng.Solve(context.Background(), p, Options{Mode: ModeCostSensitive, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(context.Background(), p, cs, 2000, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.TotalRevenue()-cs.TotalRevenue()) > 0.3 {
		t.Errorf("MC evaluation %v vs engine estimate %v", ev.TotalRevenue(), cs.TotalRevenue())
	}
	if math.Abs(ev.TotalSeedCost()-cs.TotalSeedCost()) > 1e-9 {
		t.Errorf("seed cost mismatch: %v vs %v", ev.TotalSeedCost(), cs.TotalSeedCost())
	}
	for i := range ev.Payment {
		if math.Abs(ev.Payment[i]-(ev.Revenue[i]+ev.SeedCost[i])) > 1e-9 {
			t.Error("evaluation accounting identity violated")
		}
	}
}

func smallWCProblem(h int, seed uint64) *Problem {
	rng := xrand.New(seed)
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	ads := topic.CompetingAds(h, 1, rng)
	topic.AssignBudgets(ads, topic.BudgetParams{
		MinBudget: 60, MaxBudget: 120, MinCPE: 1, MaxCPE: 2,
	}, rng)
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, h)
	for i := range incs {
		incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
	}
	return &Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

func TestEngineMultiAdFeasibility(t *testing.T) {
	p := smallWCProblem(4, 5)
	for _, mode := range []Mode{ModeCostAgnostic, ModeCostSensitive} {
		alloc, stats, err := solveFresh(p, Options{Mode: mode, Epsilon: 0.3, Seed: 3, MaxThetaPerAd: 50000})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := alloc.ValidateSlack(p, 0.3); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if alloc.NumSeeds() == 0 {
			t.Errorf("%v allocated no seeds", mode)
		}
		seen := map[int32]bool{}
		for _, seeds := range alloc.Seeds {
			for _, u := range seeds {
				if seen[u] {
					t.Fatalf("%v: node %d assigned twice", mode, u)
				}
				seen[u] = true
			}
		}
		if stats.RRMemoryBytes <= 0 || stats.TotalRRSets <= 0 {
			t.Errorf("%v: stats not populated: %+v", mode, stats)
		}
		for i := range stats.SeedCounts {
			if stats.SeedCounts[i] != len(alloc.Seeds[i]) {
				t.Errorf("%v: seed count mismatch for ad %d", mode, i)
			}
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	p := smallWCProblem(3, 6)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 42, MaxThetaPerAd: 30000}
	a1, _, err := solveFresh(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := solveFresh(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Seeds {
		if len(a1.Seeds[i]) != len(a2.Seeds[i]) {
			t.Fatalf("ad %d: %d vs %d seeds", i, len(a1.Seeds[i]), len(a2.Seeds[i]))
		}
		for j := range a1.Seeds[i] {
			if a1.Seeds[i][j] != a2.Seeds[i][j] {
				t.Fatalf("ad %d seed %d differs: %d vs %d", i, j, a1.Seeds[i][j], a2.Seeds[i][j])
			}
		}
	}
}

// Under constant incentives cost-sensitivity is nullified: TI-CARM and
// TI-CSRM should coincide (up to tie-breaking), as the paper observes.
func TestEngineConstantIncentivesNullifyCostSensitivity(t *testing.T) {
	rng := xrand.New(7)
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	h := 3
	ads := topic.CompetingAds(h, 1, rng)
	topic.UniformBudgets(ads, 80, 1)
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, h)
	for i := range incs {
		incs[i] = incentive.Build(incentive.Constant, 0.2, sigma)
	}
	p := &Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}

	ca, _, err := solveFresh(p, Options{Mode: ModeCostAgnostic, Epsilon: 0.3, Seed: 11, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 11, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(ca.TotalRevenue()-cs.TotalRevenue()) / math.Max(ca.TotalRevenue(), 1)
	if rel > 0.05 {
		t.Errorf("constant incentives: CA %v vs CS %v differ by %.1f%%",
			ca.TotalRevenue(), cs.TotalRevenue(), 100*rel)
	}
}

// The windowed search with w = n must match the full cost-sensitive rule.
func TestEngineFullWindowEquivalence(t *testing.T) {
	p := smallWCProblem(2, 8)
	full, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 13, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	windowed, _, err := solveFresh(p, Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 13,
		Window: int(p.Graph.NumNodes()), MaxThetaPerAd: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(full.TotalRevenue()-windowed.TotalRevenue()) / math.Max(full.TotalRevenue(), 1)
	if rel > 0.05 {
		t.Errorf("w=n revenue %v vs full %v differ by %.1f%%",
			windowed.TotalRevenue(), full.TotalRevenue(), 100*rel)
	}
}

func TestEngineMaxThetaCap(t *testing.T) {
	p := smallWCProblem(2, 9)
	_, stats, err := solveFresh(p, Options{Mode: ModeCostAgnostic, Epsilon: 0.3, Seed: 17, MaxThetaPerAd: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range stats.Theta {
		if th > 500 {
			t.Errorf("ad %d theta %d exceeds cap", i, th)
		}
	}
}

func TestEnginePageRankModes(t *testing.T) {
	p := smallWCProblem(3, 10)
	// Degree-based stand-in scores (the real PageRank lives in
	// internal/baseline; the engine only consumes a score vector).
	scores := make([][]float64, p.NumAds())
	for i := range scores {
		scores[i] = make([]float64, p.Graph.NumNodes())
		for u := int32(0); u < p.Graph.NumNodes(); u++ {
			scores[i][u] = float64(p.Graph.OutDegree(u))
		}
	}
	for _, mode := range []Mode{ModePRGreedy, ModePRRoundRobin} {
		alloc, _, err := solveFresh(p, Options{
			Mode: mode, Epsilon: 0.3, Seed: 19, MaxThetaPerAd: 30000, PRScores: scores,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := alloc.ValidateSlack(p, 0.3); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if alloc.NumSeeds() == 0 {
			t.Errorf("%v allocated no seeds", mode)
		}
	}
	// Missing scores must error.
	if _, _, err := solveFresh(p, Options{Mode: ModePRGreedy, Seed: 1}); err == nil {
		t.Error("expected error for missing PRScores")
	}
}

// A gadget where the round-robin baseline visibly differs from greedy
// cross-ad selection: two ads, one dominant node.
func TestEngineRoundRobinOrder(t *testing.T) {
	p := smallWCProblem(2, 12)
	scores := make([][]float64, 2)
	for i := range scores {
		scores[i] = make([]float64, p.Graph.NumNodes())
		for u := int32(0); u < p.Graph.NumNodes(); u++ {
			scores[i][u] = float64(p.Graph.OutDegree(u))
		}
	}
	alloc, _, err := solveFresh(p, Options{
		Mode: ModePRRoundRobin, Epsilon: 0.3, Seed: 23, MaxThetaPerAd: 30000, PRScores: scores,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin gives ad 0 the globally best node; ad 1 the second.
	if len(alloc.Seeds[0]) == 0 || len(alloc.Seeds[1]) == 0 {
		t.Fatal("both ads should receive seeds")
	}
	if scores[0][alloc.Seeds[0][0]] < scores[1][alloc.Seeds[1][0]] {
		t.Errorf("ad 0 first seed (score %v) should dominate ad 1's (%v)",
			scores[0][alloc.Seeds[0][0]], scores[1][alloc.Seeds[1][0]])
	}
}

func TestEngineModeString(t *testing.T) {
	names := map[Mode]string{
		ModeCostAgnostic:  "TI-CARM",
		ModeCostSensitive: "TI-CSRM",
		ModePRGreedy:      "PageRank-GR",
		ModePRRoundRobin:  "PageRank-RR",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode %d String = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestHeapProperty(t *testing.T) {
	rng := xrand.New(31)
	var h candHeap
	const n = 500
	entries := make([]candEntry, n)
	for i := range entries {
		entries[i] = candEntry{node: int32(i), key: rng.Float64()}
	}
	h.Build(append([]candEntry(nil), entries...))
	prev := math.Inf(1)
	for h.Len() > 0 {
		e := h.Pop()
		if e.key > prev {
			t.Fatalf("heap popped out of order: %v after %v", e.key, prev)
		}
		prev = e.key
	}
	// Push-based construction must agree.
	h.Reset(n)
	for _, e := range entries {
		h.Push(e)
	}
	prev = math.Inf(1)
	for h.Len() > 0 {
		e := h.Pop()
		if e.key > prev {
			t.Fatalf("push-built heap out of order")
		}
		prev = e.key
	}
}
