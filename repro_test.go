package repro

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// TestPublicAPIQuickstart walks the documented quickstart path end to end
// through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	w, err := NewWorkbench("flixster", Params{
		Scale: ScaleTiny, Seed: 42, H: 3, SingletonRuns: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Problem(Linear, 0.2)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{})
	alloc, stats, err := eng.Solve(context.Background(), p,
		Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 42, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumSeeds() == 0 || stats.Duration <= 0 {
		t.Fatal("quickstart produced no work")
	}
	ev, err := eng.Evaluate(context.Background(), p, alloc, 500, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TotalRevenue() <= 0 {
		t.Fatal("no revenue")
	}
	evComp := EvaluateCompetitive(p, alloc, 500, 2, 7)
	if evComp.TotalRevenue() > ev.TotalRevenue()*1.05 {
		t.Error("competitive evaluation should not exceed independent")
	}
	// Serialization round trip through the facade.
	path := filepath.Join(t.TempDir(), "alloc.json")
	if err := SaveAllocation(path, alloc); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAllocation(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeeds() != alloc.NumSeeds() {
		t.Error("allocation round trip lost seeds")
	}
}

// TestPublicAPIAllAlgorithms solves one problem through the facade in
// every registered mode, supplying PageRank scores to the modes that
// need them, and checks each allocation against the paper's constraints.
func TestPublicAPIAllAlgorithms(t *testing.T) {
	w, err := NewWorkbench("epinions", Params{Scale: ScaleTiny, Seed: 7, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Problem(Sublinear, 12)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{})
	for _, info := range Algorithms() {
		opt := Options{Mode: info.Mode, Epsilon: 0.3, Seed: 7, MaxThetaPerAd: 30000}
		if info.NeedsPRScores {
			opt.PRScores = PageRankScores(p)
		}
		alloc, _, err := eng.Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := alloc.ValidateSlack(p, 0.3); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
	}
}

// TestPublicAPIReferenceGreedy exercises the Figure 1 gadget through the
// facade.
func TestPublicAPIReferenceGreedy(t *testing.T) {
	p := Fig1Instance()
	oracle := NewMCOracle(p, 2000, 1)
	ca, err := CAGreedy(p, oracle)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := CSGreedy(p, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ca.TotalRevenue()-3) > 0.2 || math.Abs(cs.TotalRevenue()-6) > 0.2 {
		t.Errorf("gadget revenues: CA %v (want ≈3), CS %v (want ≈6)",
			ca.TotalRevenue(), cs.TotalRevenue())
	}
}
