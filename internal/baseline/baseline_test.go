package baseline

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.RMAT(128, 600, gen.DefaultRMAT, xrand.New(1))
	pr := PageRank(g, nil, PageRankOptions{})
	var sum float64
	for _, v := range pr {
		if v < 0 {
			t.Fatal("negative PageRank mass")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PageRank sums to %v, want 1", sum)
	}
}

// A hub with many followers must outrank its followers: arcs (hub, leaf)
// mean leaves follow the hub, so endorsement mass flows leaf -> hub.
func TestPageRankRanksInfluencers(t *testing.T) {
	b := graph.NewBuilder(11, 10)
	for v := int32(1); v <= 10; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	pr := PageRank(g, nil, PageRankOptions{})
	for v := 1; v <= 10; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("hub pr %v not above leaf pr %v", pr[0], pr[v])
		}
	}
}

// On a symmetric ring every node must receive identical rank.
func TestPageRankSymmetric(t *testing.T) {
	const n = 12
	b := graph.NewBuilder(n, 2*n)
	for u := int32(0); u < n; u++ {
		b.AddUndirected(u, (u+1)%n)
	}
	g := b.Build()
	pr := PageRank(g, nil, PageRankOptions{})
	for u := 1; u < n; u++ {
		if math.Abs(pr[u]-pr[0]) > 1e-9 {
			t.Fatalf("ring PageRank not uniform: pr[%d]=%v vs pr[0]=%v", u, pr[u], pr[0])
		}
	}
}

// Edge weights must matter: shifting all probability onto one follower
// relationship concentrates rank.
func TestPageRankWeighted(t *testing.T) {
	// Node 1 and 2 both point to... arcs (1,0) and (2,0): node 0 follows
	// nobody; 0 is followed by nobody. Build: arcs (1,3),(2,3): node 3
	// follows 1 and 2. Heavy weight on (1,3) should rank 1 above 2.
	b := graph.NewBuilder(4, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	var probs []float32
	g.Edges(func(u, v int32, e int64) bool {
		probs = append(probs, 0)
		return true
	})
	g.Edges(func(u, v int32, e int64) bool {
		if u == 1 {
			probs[e] = 0.9
		} else {
			probs[e] = 0.1
		}
		return true
	})
	pr := PageRank(g, probs, PageRankOptions{})
	if pr[1] <= pr[2] {
		t.Errorf("heavily-weighted influencer 1 (pr %v) should outrank 2 (pr %v)", pr[1], pr[2])
	}
}

func TestPageRankDeterministic(t *testing.T) {
	g := gen.RMAT(64, 300, gen.DefaultRMAT, xrand.New(2))
	a := PageRank(g, nil, PageRankOptions{})
	b := PageRank(g, nil, PageRankOptions{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PageRank not deterministic")
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).Build()
	if pr := PageRank(g, nil, PageRankOptions{}); pr != nil {
		t.Error("empty graph should yield nil scores")
	}
}

func smallProblem(h int, seed uint64) *core.Problem {
	rng := xrand.New(seed)
	g := gen.RMAT(200, 1200, gen.DefaultRMAT, rng)
	model := topic.NewWeightedCascade(g)
	ads := topic.CompetingAds(h, 1, rng)
	topic.UniformBudgets(ads, 60, 1)
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, h)
	for i := range incs {
		incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
	}
	return &core.Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

// solve runs one mode on a fresh Engine, supplying PageRank scores to
// the modes whose registry entry needs them.
func solve(p *core.Problem, mode core.Mode, opt core.Options) (*core.Allocation, *core.Stats, error) {
	opt.Mode = mode
	if info, _ := core.ModeInfo(mode); info.NeedsPRScores {
		opt.PRScores = ScoresForProblem(p, PageRankOptions{})
	}
	return core.NewEngine(p.Graph, p.Model, core.EngineOptions{}).Solve(context.Background(), p, opt)
}

func TestPageRankGRAndRREndToEnd(t *testing.T) {
	p := smallProblem(3, 3)
	gr, grStats, err := solve(p, core.ModePRGreedy, core.Options{Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.ValidateSlack(p, 0.3); err != nil {
		t.Fatal(err)
	}
	rr, rrStats, err := solve(p, core.ModePRRoundRobin, core.Options{Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.ValidateSlack(p, 0.3); err != nil {
		t.Fatal(err)
	}
	if gr.NumSeeds() == 0 || rr.NumSeeds() == 0 {
		t.Error("baselines allocated no seeds")
	}
	if grStats.Mode != core.ModePRGreedy || rrStats.Mode != core.ModePRRoundRobin {
		t.Error("stats mode not recorded")
	}
}

// The headline claim of the paper (Figure 2): TI-CSRM should beat the
// PageRank baselines under linear incentives. Verified on a small
// instance with an independent Monte-Carlo evaluation.
func TestTICSRMBeatsPageRankBaselines(t *testing.T) {
	p := smallProblem(3, 7)
	opt := core.Options{Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 50000}
	cs, _, err := solve(p, core.ModeCostSensitive, opt)
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := solve(p, core.ModePRGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	rr, _, err := solve(p, core.ModePRRoundRobin, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(p.Graph, p.Model, core.EngineOptions{})
	evCS, err := eng.Evaluate(context.Background(), p, cs, 2000, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	evGR, err := eng.Evaluate(context.Background(), p, gr, 2000, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	evRR, err := eng.Evaluate(context.Background(), p, rr, 2000, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	// Allow a small tolerance: on tiny instances the heuristics can come
	// close, but they should not win outright.
	if evCS.TotalRevenue() < 0.95*evGR.TotalRevenue() {
		t.Errorf("TI-CSRM revenue %v well below PageRank-GR %v",
			evCS.TotalRevenue(), evGR.TotalRevenue())
	}
	if evCS.TotalRevenue() < 0.95*evRR.TotalRevenue() {
		t.Errorf("TI-CSRM revenue %v well below PageRank-RR %v",
			evCS.TotalRevenue(), evRR.TotalRevenue())
	}
}

func TestHighDegreeAndRandomScores(t *testing.T) {
	p := smallProblem(2, 11)
	hd := HighDegreeScores(p)
	if len(hd) != 2 {
		t.Fatal("wrong score count")
	}
	var maxDeg int32
	var maxNode int32
	for u := int32(0); u < p.Graph.NumNodes(); u++ {
		if d := p.Graph.OutDegree(u); d > maxDeg {
			maxDeg, maxNode = d, u
		}
	}
	for u := range hd[0] {
		if hd[0][u] > hd[0][maxNode] {
			t.Fatal("high-degree scores inconsistent with degrees")
		}
	}
	rs := RandomScores(p, 1)
	if len(rs) != 2 || len(rs[0]) != int(p.Graph.NumNodes()) {
		t.Fatal("random scores wrong shape")
	}
	rs2 := RandomScores(p, 1)
	for i := range rs[0] {
		if rs[0][i] != rs2[0][i] {
			t.Fatal("random scores not deterministic under fixed seed")
		}
	}
}
