package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/submod"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// ---- Figure 1 tightness instance -----------------------------------------

func TestFig1InstanceStructure(t *testing.T) {
	p := Fig1Instance()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	o := NewExactOracle(p)
	// Singleton spreads: b, a, c = 3; leaves = 1.
	for node, want := range map[int32]float64{0: 3, 1: 3, 2: 3, 3: 1, 6: 1} {
		if got := o.Spread(0, []int32{node}); math.Abs(got-want) > 1e-9 {
			t.Errorf("σ({%d}) = %v, want %v", node, got, want)
		}
	}
	if got := o.Spread(0, []int32{1, 2}); math.Abs(got-6) > 1e-9 {
		t.Errorf("σ({a,c}) = %v, want 6", got)
	}
}

// The paper's Theorem 2 tightness claim, end to end: CA-GREEDY revenue 3 =
// (1/κ)(1−((R−κ)/R)^r)·OPT with κ=1, r=1, R=2, OPT=6; CS-GREEDY optimal.
func TestFig1Tightness(t *testing.T) {
	p := Fig1Instance()
	oracle := NewExactOracle(p)

	ca, err := CAGreedy(p, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ca.TotalRevenue()-3) > 1e-9 {
		t.Errorf("CA-GREEDY revenue = %v, want 3", ca.TotalRevenue())
	}
	if len(ca.Seeds[0]) != 1 || ca.Seeds[0][0] != 0 {
		t.Errorf("CA-GREEDY seeds = %v, want [b=0]", ca.Seeds[0])
	}

	cs, err := CSGreedy(p, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.TotalRevenue()-6) > 1e-9 {
		t.Errorf("CS-GREEDY revenue = %v, want 6 (optimal, footnote 9)", cs.TotalRevenue())
	}
	seeds := map[int32]bool{}
	for _, u := range cs.Seeds[0] {
		seeds[u] = true
	}
	if !seeds[1] || !seeds[2] || len(seeds) != 2 {
		t.Errorf("CS-GREEDY seeds = %v, want {a=1, c=2}", cs.Seeds[0])
	}
}

// Cross-check the instance's theory quantities with the submod toolkit:
// κ_π = 1, r = 1, R = 2, bound = 1/2, brute-force OPT = 6.
func TestFig1TheoryQuantities(t *testing.T) {
	p := Fig1Instance()
	oracle := NewExactOracle(p)
	n := int(p.Graph.NumNodes())

	pi := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
		var seeds []int32
		for _, e := range m.Elements() {
			seeds = append(seeds, int32(e))
		}
		return oracle.Spread(0, seeds) // cpe = 1
	}}
	rho := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
		v := pi.Eval(m)
		for _, e := range m.Elements() {
			v += p.Incentives[0].Cost(int32(e))
		}
		return v
	}}
	fam := submod.Knapsack{Cost: rho, Budget: p.Ads[0].Budget}

	if kappa := submod.TotalCurvature(pi); math.Abs(kappa-1) > 1e-9 {
		t.Errorf("κ_π = %v, want 1", kappa)
	}
	r, R := submod.Ranks(fam)
	if r != 1 || R != 2 {
		t.Errorf("ranks = (%d,%d), want (1,2)", r, R)
	}
	if bound := submod.CABound(1, r, R); math.Abs(bound-0.5) > 1e-9 {
		t.Errorf("Theorem 2 bound = %v, want 1/2", bound)
	}
	_, opt := submod.BruteForceMax(pi, fam)
	if math.Abs(opt-6) > 1e-9 {
		t.Errorf("brute-force OPT = %v, want 6", opt)
	}
}

// ---- Random small instances ----------------------------------------------

// randomProblem builds a tiny RM instance with at most 24 arcs so the
// exact oracle applies.
func randomProblem(rng *xrand.RNG, h int) *Problem {
	n := int32(6 + rng.Intn(3))
	b := graph.NewBuilder(n, 12)
	added := 0
	for added < 12 {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u != v {
			b.AddEdge(u, v)
			added++
		}
	}
	g := b.Build()
	model := topic.NewUniformIC(g, 0.3+0.4*rng.Float64())
	ads := make([]topic.Ad, h)
	incs := make([]*incentive.Table, h)
	for i := 0; i < h; i++ {
		ads[i] = topic.Ad{
			ID:     i,
			Gamma:  topic.Distribution{1},
			CPE:    1 + rng.Float64(),
			Budget: 4 + 6*rng.Float64(),
		}
		sigma := make([]float64, n)
		for u := range sigma {
			sigma[u] = rng.Float64() * 2
		}
		incs[i] = incentive.Build(incentive.Linear, 1, sigma)
	}
	return &Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

// Every reference-greedy allocation satisfies the partition matroid and
// knapsack constraints.
func TestReferenceGreedyFeasible(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 8; trial++ {
		p := randomProblem(rng, 2)
		for _, alg := range []func(*Problem, SpreadOracle) (*Allocation, error){CAGreedy, CSGreedy} {
			alloc, err := alg(p, NewExactOracle(p))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := alloc.Validate(p); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// CSBound is Theorem 3's approximation guarantee for CS-GREEDY:
// 1 − R·ρmax / (R·ρmax + (1 − max_i κ_{ρ_i})·ρmin). It degenerates to 0
// when the payment curvature reaches 1, as the paper discusses.
func CSBound(R int, rhoMax, rhoMin, maxKappaRho float64) float64 {
	if R <= 0 {
		panic("CSBound needs positive upper rank")
	}
	den := float64(R)*rhoMax + (1-maxKappaRho)*rhoMin
	if den <= 0 {
		return 0
	}
	return 1 - float64(R)*rhoMax/den
}

func TestCSBoundProperties(t *testing.T) {
	// Curvature 1 degenerates to 0 (paper's discussion).
	if got := CSBound(2, 1, 1, 1); got != 0 {
		t.Errorf("degenerate CSBound = %v, want 0", got)
	}
	// Modular payments (κ=0), ρmax = ρmin = ρ: bound = 1 - R/(R+1).
	if got, want := CSBound(4, 2, 2, 0), 1-4.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("CSBound = %v, want %v", got, want)
	}
	// Bound improves as ρmax/ρmin shrinks (paper's discussion).
	if CSBound(4, 1, 1, 0) <= CSBound(4, 10, 1, 0) {
		t.Error("CSBound should improve when ρmax/ρmin decreases")
	}
}

// Theorem 3's bound: CS-GREEDY revenue ≥ CSBound · OPT on tiny instances,
// computed with the real curvature/rank quantities.
func TestTheorem3BoundHolds(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(rng, 1)
		oracle := NewExactOracle(p)
		n := int(p.Graph.NumNodes())
		if n > 10 {
			continue
		}
		toSeeds := func(m submod.Mask) []int32 {
			var s []int32
			for _, e := range m.Elements() {
				s = append(s, int32(e))
			}
			return s
		}
		pi := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
			return p.Ads[0].CPE * oracle.Spread(0, toSeeds(m))
		}}
		rho := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
			v := pi.Eval(m)
			for _, e := range m.Elements() {
				v += p.Incentives[0].Cost(int32(e))
			}
			return v
		}}
		fam := submod.Knapsack{Cost: rho, Budget: p.Ads[0].Budget}
		_, opt := submod.BruteForceMax(pi, fam)
		if opt <= 0 {
			continue
		}
		_, R := submod.Ranks(fam)
		kappaRho := submod.TotalCurvature(rho)
		rhoMax, rhoMin := 0.0, math.Inf(1)
		for u := 0; u < n; u++ {
			v := rho.Eval(submod.Mask(0).Add(u))
			if v > rhoMax {
				rhoMax = v
			}
			if v < rhoMin {
				rhoMin = v
			}
		}
		bound := CSBound(R, rhoMax, rhoMin, kappaRho)

		cs, err := CSGreedy(p, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if cs.TotalRevenue() < bound*opt-1e-9 {
			t.Errorf("trial %d: CS revenue %v < bound %v × OPT %v",
				trial, cs.TotalRevenue(), bound, opt)
		}
	}
}

// MC oracle must agree with the exact oracle closely enough for the greedy
// outcome to match on a well-separated instance (Fig. 1).
func TestMCOracleMatchesExactOnFig1(t *testing.T) {
	p := Fig1Instance()
	mc := NewMCOracle(p, 3000, 7)
	ca, err := CAGreedy(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Seeds[0]) != 1 || ca.Seeds[0][0] != 0 {
		t.Errorf("MC CA-GREEDY seeds = %v, want [0]", ca.Seeds[0])
	}
	cs, err := CSGreedy(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.TotalRevenue()-6) > 0.2 {
		t.Errorf("MC CS-GREEDY revenue = %v, want ≈6", cs.TotalRevenue())
	}
}

// Disjointness across two advertisers competing for the same nodes.
func TestReferenceGreedyDisjointSeeds(t *testing.T) {
	rng := xrand.New(3)
	p := randomProblem(rng, 3)
	alloc, err := CSGreedy(p, NewExactOracle(p))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, seeds := range alloc.Seeds {
		for _, u := range seeds {
			if seen[u] {
				t.Fatalf("node %d assigned twice", u)
			}
			seen[u] = true
		}
	}
}

// Allocation accounting identities: Payment = Revenue + SeedCost.
func TestAllocationAccounting(t *testing.T) {
	rng := xrand.New(4)
	p := randomProblem(rng, 2)
	alloc, err := CAGreedy(p, NewExactOracle(p))
	if err != nil {
		t.Fatal(err)
	}
	for i := range alloc.Seeds {
		if math.Abs(alloc.Payment[i]-(alloc.Revenue[i]+alloc.SeedCost[i])) > 1e-9 {
			t.Errorf("ad %d: payment %v != revenue %v + cost %v",
				i, alloc.Payment[i], alloc.Revenue[i], alloc.SeedCost[i])
		}
	}
	if alloc.TotalPayment() < alloc.TotalRevenue() {
		t.Error("total payment below total revenue")
	}
}

func TestProblemValidateCatchesErrors(t *testing.T) {
	p := Fig1Instance()
	// Wrong incentive table size.
	bad := *p
	bad.Incentives = []*incentive.Table{incentive.Build(incentive.Linear, 1, []float64{1})}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for short incentive table")
	}
	// Ad IDs must be positional.
	bad2 := *p
	bad2.Ads = []topic.Ad{{ID: 5, Gamma: topic.Distribution{1}, CPE: 1, Budget: 7}}
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for non-positional ad ID")
	}
	// Model on a different graph.
	other := gen.ErdosRenyi(5, 5, xrand.New(9))
	bad3 := *p
	bad3.Model = topic.NewUniformIC(other, 0.5)
	if err := bad3.Validate(); err == nil {
		t.Error("expected error for model on different graph")
	}
}

func TestAllocationValidateCatchesViolations(t *testing.T) {
	p := Fig1Instance()
	a := NewAllocation(1)
	a.Seeds[0] = []int32{0, 0}
	if err := a.Validate(p); err == nil {
		t.Error("expected error for duplicate seed")
	}
	a = NewAllocation(1)
	a.Seeds[0] = []int32{99}
	if err := a.Validate(p); err == nil {
		t.Error("expected error for out-of-range seed")
	}
	a = NewAllocation(1)
	a.Seeds[0] = []int32{0}
	a.Payment[0] = 100
	if err := a.Validate(p); err == nil {
		t.Error("expected error for budget violation")
	}
	if err := a.ValidateSlack(p, 20); err != nil {
		t.Errorf("huge slack should accept: %v", err)
	}
}
