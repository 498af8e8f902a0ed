package core

import (
	"testing"
)

// allocationsEqual fails the test unless the two allocations assign the
// same seeds in the same order with identical accounting.
func allocationsEqual(t *testing.T, a, b *Allocation) {
	t.Helper()
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("%d vs %d ads", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if len(a.Seeds[i]) != len(b.Seeds[i]) {
			t.Fatalf("ad %d: %d vs %d seeds", i, len(a.Seeds[i]), len(b.Seeds[i]))
		}
		for j := range a.Seeds[i] {
			if a.Seeds[i][j] != b.Seeds[i][j] {
				t.Fatalf("ad %d seed %d differs: %d vs %d", i, j, a.Seeds[i][j], b.Seeds[i][j])
			}
		}
		if a.Revenue[i] != b.Revenue[i] || a.Payment[i] != b.Payment[i] {
			t.Fatalf("ad %d accounting differs: (%v, %v) vs (%v, %v)",
				i, a.Revenue[i], a.Payment[i], b.Revenue[i], b.Payment[i])
		}
	}
}

// An Engine's zero Workers and an explicit 1 coincide.
func TestEngineWorkersOneIsDefault(t *testing.T) {
	p := smallWCProblem(3, 21)
	base := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 30000}
	a1, s1, err := solveFresh(p, base)
	if err != nil {
		t.Fatal(err)
	}
	a2, s2, err := solveWith(p, EngineOptions{Workers: 1}, base)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, a1, a2)
	if s1.TotalRRSets != s2.TotalRRSets {
		t.Errorf("RR set counts differ: %d vs %d", s1.TotalRRSets, s2.TotalRRSets)
	}
	if s1.SampleWorkers != 1 || s2.SampleWorkers != 1 {
		t.Errorf("SampleWorkers = %d / %d, want 1 / 1", s1.SampleWorkers, s2.SampleWorkers)
	}
}

// A multi-worker engine run is deterministic for a fixed Seed and still
// produces a feasible allocation in every mode combination the sampler
// touches (exclusive and shared storage).
func TestEngineParallelDeterministicAndFeasible(t *testing.T) {
	p := smallWCProblem(4, 22)
	eo := EngineOptions{Workers: 4}
	for _, share := range []bool{false, true} {
		opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 11,
			MaxThetaPerAd: 30000, ShareSamples: share}
		a1, s1, err := solveWith(p, eo, opt)
		if err != nil {
			t.Fatalf("share=%v: %v", share, err)
		}
		a2, s2, err := solveWith(p, eo, opt)
		if err != nil {
			t.Fatalf("share=%v: %v", share, err)
		}
		allocationsEqual(t, a1, a2)
		if s1.TotalRRSets != s2.TotalRRSets {
			t.Errorf("share=%v: RR set counts differ: %d vs %d",
				share, s1.TotalRRSets, s2.TotalRRSets)
		}
		if s1.SampleWorkers != 4 {
			t.Errorf("share=%v: SampleWorkers = %d, want 4", share, s1.SampleWorkers)
		}
		if err := a1.ValidateSlack(p, 0.3); err != nil {
			t.Errorf("share=%v: %v", share, err)
		}
		if a1.NumSeeds() == 0 {
			t.Errorf("share=%v: no seeds allocated", share)
		}
	}
}

// Parallel and sequential sampling draw from the same RR distribution, so
// revenue estimates must agree within the estimation accuracy — a loose
// statistical sanity check that the parallel path isn't biased.
func TestEngineParallelRevenueCloseToSequential(t *testing.T) {
	p := smallWCProblem(3, 23)
	seq, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 13, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := solveWith(p, EngineOptions{Workers: 4}, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 13, MaxThetaPerAd: 30000})
	if err != nil {
		t.Fatal(err)
	}
	sr, pr := seq.TotalRevenue(), par.TotalRevenue()
	if sr <= 0 || pr <= 0 {
		t.Fatalf("non-positive revenues: %v, %v", sr, pr)
	}
	if ratio := pr / sr; ratio < 0.5 || ratio > 2 {
		t.Errorf("parallel revenue %v vs sequential %v (ratio %v) — too far apart", pr, sr, ratio)
	}
}
