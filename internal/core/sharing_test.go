package core

import (
	"context"
	"math"
	"testing"
)

// With ShareSamples, ads in pure competition (identical topic
// distributions) share one RR universe: memory drops while allocations
// stay feasible and revenue stays comparable.
func TestEngineShareSamples(t *testing.T) {
	p := smallWCProblem(4, 21) // L=1: all ads share one distribution
	base := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 33, MaxThetaPerAd: 40000}

	exclusive, exclStats, err := solveFresh(p, base)
	if err != nil {
		t.Fatal(err)
	}
	shared := base
	shared.ShareSamples = true
	sharedAlloc, sharedStats, err := solveFresh(p, shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharedAlloc.ValidateSlack(p, 0.3); err != nil {
		t.Fatalf("shared allocation infeasible: %v", err)
	}
	if sharedStats.RRMemoryBytes >= exclStats.RRMemoryBytes {
		t.Errorf("sharing should reduce memory: %d vs %d",
			sharedStats.RRMemoryBytes, exclStats.RRMemoryBytes)
	}
	// Same estimator accuracy regime: revenues must be comparable.
	eng := engineFor(p, 1)
	evExcl, err := eng.Evaluate(context.Background(), p, exclusive, 2000, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	evShared, err := eng.Evaluate(context.Background(), p, sharedAlloc, 2000, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(evExcl.TotalRevenue()-evShared.TotalRevenue()) /
		math.Max(evExcl.TotalRevenue(), 1)
	if rel > 0.1 {
		t.Errorf("sharing changed revenue by %.1f%%: %v vs %v",
			100*rel, evShared.TotalRevenue(), evExcl.TotalRevenue())
	}
	// Universe counted once: fewer total RR sets sampled.
	if sharedStats.TotalRRSets >= exclStats.TotalRRSets {
		t.Errorf("sharing should sample fewer sets: %d vs %d",
			sharedStats.TotalRRSets, exclStats.TotalRRSets)
	}
}

// Sharing with the cost-agnostic mode and with PageRank modes must also
// produce feasible allocations.
func TestEngineShareSamplesOtherModes(t *testing.T) {
	p := smallWCProblem(3, 22)
	scores := make([][]float64, p.NumAds())
	for i := range scores {
		scores[i] = make([]float64, p.Graph.NumNodes())
		for u := int32(0); u < p.Graph.NumNodes(); u++ {
			scores[i][u] = float64(p.Graph.OutDegree(u))
		}
	}
	for _, mode := range []Mode{ModeCostAgnostic, ModePRGreedy, ModePRRoundRobin} {
		alloc, stats, err := solveFresh(p, Options{
			Mode: mode, Epsilon: 0.3, Seed: 44, MaxThetaPerAd: 30000,
			ShareSamples: true, PRScores: scores,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := alloc.ValidateSlack(p, 0.3); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if alloc.NumSeeds() == 0 {
			t.Errorf("%v: no seeds with sharing", mode)
		}
		if stats.TotalRRSets == 0 {
			t.Errorf("%v: no RR sets recorded", mode)
		}
	}
}

// Sharing is deterministic under a fixed seed.
func TestEngineShareSamplesDeterministic(t *testing.T) {
	p := smallWCProblem(3, 23)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 55,
		MaxThetaPerAd: 30000, ShareSamples: true}
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
			t.Fatalf("ad %d seed count differs", i)
		}
		for j := range a1.Seeds[i] {
			if a1.Seeds[i][j] != a2.Seeds[i][j] {
				t.Fatal("shared-sample run not deterministic")
			}
		}
	}
}
