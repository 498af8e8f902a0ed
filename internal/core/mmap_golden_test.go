package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// TestMmapVsCopyLoadBitIdentical is the load-path golden: a snapshot
// decoded by the copy loader (one heap image of the file) and by the
// zero-copy mmap loader (slices aliasing the file mapping) must drive
// the engine to bit-identical allocations. Byte equality of the decoded
// sections is checked in internal/dataset; this pins the stronger claim
// that the aliased arrays behave identically under the full sampling
// and allocation pipeline, sequential and parallel.
func TestMmapVsCopyLoadBitIdentical(t *testing.T) {
	rng := xrand.New(31)
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, rng)
	ads := topic.CompetingAds(4, 1, rng)
	topic.AssignBudgets(ads, topic.BudgetParams{
		MinBudget: 60, MaxBudget: 120, MinCPE: 1, MaxCPE: 2,
	}, rng)
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := dataset.Save(path, &dataset.Snapshot{
		Name: "mmap-golden", Directed: true, ProbModel: gen.ProbWC,
		Graph: g, Model: topic.NewWeightedCascade(g), Ads: ads,
	}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	copied, err := dataset.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mapped, err := dataset.LoadMmap(path)
	if err != nil {
		t.Fatalf("LoadMmap: %v", err)
	}
	defer mapped.Close()
	if mapped.MappedBytes() == 0 {
		t.Log("mmap fell back to the copy loader on this platform; equality still holds trivially")
	}

	problemOf := func(s *dataset.Snapshot) *Problem {
		sigma := incentive.SingletonsOutDegree(s.Graph)
		incs := make([]*incentive.Table, len(s.Ads))
		for i := range incs {
			incs[i] = incentive.Build(incentive.Linear, 0.2, sigma)
		}
		return &Problem{Graph: s.Graph, Model: s.Model, Ads: s.Ads, Incentives: incs}
	}
	pCopy, pMmap := problemOf(copied), problemOf(mapped)

	for _, workers := range []int{1, 4} {
		opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 17, MaxThetaPerAd: 30000}
		engCopy := NewEngine(pCopy.Graph, pCopy.Model, EngineOptions{Workers: workers})
		engMmap := NewEngine(pMmap.Graph, pMmap.Model, EngineOptions{Workers: workers})
		want, wantStats, err := engCopy.Solve(context.Background(), pCopy, opt)
		if err != nil {
			t.Fatalf("copy workers=%d: %v", workers, err)
		}
		got, gotStats, err := engMmap.Solve(context.Background(), pMmap, opt)
		if err != nil {
			t.Fatalf("mmap workers=%d: %v", workers, err)
		}
		allocationsEqual(t, want, got)
		for i := range wantStats.Theta {
			if wantStats.Theta[i] != gotStats.Theta[i] || wantStats.Kpt[i] != gotStats.Kpt[i] {
				t.Fatalf("workers=%d ad %d: theta/kpt (%d, %v) vs (%d, %v)",
					workers, i,
					wantStats.Theta[i], wantStats.Kpt[i], gotStats.Theta[i], gotStats.Kpt[i])
			}
		}
		if wantStats.TotalRRSets != gotStats.TotalRRSets {
			t.Fatalf("workers=%d: RR sets %d vs %d",
				workers, wantStats.TotalRRSets, gotStats.TotalRRSets)
		}
	}
}
