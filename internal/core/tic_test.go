package core

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// ticProblem builds a multi-topic (L=10) instance mirroring the paper's
// FLIXSTER setup: paired ads in pure competition on distinct topics.
func ticProblem(h int, seed uint64) *Problem {
	rng := xrand.New(seed)
	g := gen.RMAT(256, 2000, gen.DefaultRMAT, rng)
	model := topic.NewTICRandom(g, topic.DefaultTICParams(), rng.Split())
	ads := topic.CompetingAds(h, model.NumTopics(), rng.Split())
	topic.AssignBudgets(ads, topic.BudgetParams{
		MinBudget: 60, MaxBudget: 120, MinCPE: 1, MaxCPE: 2,
	}, rng.Split())
	incs := make([]*incentive.Table, h)
	for i := range incs {
		probs := model.EdgeProbs(ads[i].Gamma)
		sigma := cascade.SingletonSpreads(g, probs, 200, 2, rng.Split().Uint64())
		incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
	}
	return &Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

// The engine must handle multi-topic instances end to end: feasible
// disjoint allocations with per-ad topic-specific samples.
func TestEngineMultiTopicTIC(t *testing.T) {
	p := ticProblem(4, 71)
	for _, mode := range []Mode{ModeCostAgnostic, ModeCostSensitive} {
		alloc, stats, err := solveFresh(p, Options{
			Mode: mode, Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 30000,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := alloc.ValidateSlack(p, 0.3); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if alloc.NumSeeds() == 0 {
			t.Errorf("%v: no seeds on TIC instance", mode)
		}
		// Every ad needed its own RR sample (different topic mixes).
		for i, th := range stats.Theta {
			if th <= 0 {
				t.Errorf("%v: ad %d has no RR sample", mode, i)
			}
		}
	}
}

// Sample sharing on a TIC instance groups exactly the pure-competition
// pairs: h=4 ads on 2 distinct distributions -> 2 universes, so memory
// drops vs exclusive but stays above a single universe.
func TestEngineSharingGroupsByTopic(t *testing.T) {
	p := ticProblem(4, 72)
	base := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 20000}
	_, exclStats, err := solveFresh(p, base)
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
		t.Fatal(err)
	}
	if sharedStats.RRMemoryBytes >= exclStats.RRMemoryBytes {
		t.Errorf("sharing on paired ads should reduce memory: %d vs %d",
			sharedStats.RRMemoryBytes, exclStats.RRMemoryBytes)
	}
	// Two distinct topic distributions -> roughly half the sets of four
	// exclusive collections (allowing for per-ad θ differences).
	if sharedStats.TotalRRSets >= exclStats.TotalRRSets {
		t.Errorf("sharing should sample fewer sets: %d vs %d",
			sharedStats.TotalRRSets, exclStats.TotalRRSets)
	}
}

// Growth events fire when budgets admit more seeds than the initial
// latent size estimate s=1.
func TestEngineGrowthEvents(t *testing.T) {
	p := smallWCProblem(2, 73)
	_, stats, err := solveFresh(p, Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GrowthEvents == 0 {
		t.Error("expected at least one latent-seed-size growth event")
	}
	if stats.Duration <= 0 {
		t.Error("duration not recorded")
	}
}
