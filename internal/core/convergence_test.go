package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// The scalable engine must converge to the reference greedy as the RR
// sample grows: on tiny instances with small ε, TI-CARM's revenue matches
// CA-GREEDY's (computed with the exact possible-world oracle) and
// likewise for the cost-sensitive pair. This ties the whole RR pipeline
// — sampling, thresholds, latent seed-size growth, lazy heaps — back to
// the paper's Algorithm 1 semantics.
func TestEngineConvergesToReferenceGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second convergence runs")
	}
	rng := xrand.New(91)
	agree := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		p := randomProblem(rng, 2)
		oracle := NewExactOracle(p)

		refCA, err := CAGreedy(p, oracle)
		if err != nil {
			t.Fatal(err)
		}
		engCA, _, err := solveFresh(p, Options{Mode: ModeCostAgnostic, Epsilon: 0.05, Seed: uint64(trial), MaxThetaPerAd: 800_000})
		if err != nil {
			t.Fatal(err)
		}
		// Compare exact revenue of the engine's seed sets against the
		// reference: evaluate both with the exact oracle.
		exactOf := func(a *Allocation) float64 {
			var tot float64
			for i, seeds := range a.Seeds {
				tot += p.Ads[i].CPE * oracle.Spread(i, seeds)
			}
			return tot
		}
		refVal, engVal := exactOf(refCA), exactOf(engCA)
		if math.Abs(refVal-engVal) <= 0.1*math.Max(refVal, 1) {
			agree++
		} else {
			t.Logf("trial %d CA: reference %v vs engine %v (seeds %v vs %v)",
				trial, refVal, engVal, refCA.Seeds, engCA.Seeds)
		}

		refCS, err := CSGreedy(p, oracle)
		if err != nil {
			t.Fatal(err)
		}
		engCS, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.05, Seed: uint64(trial), MaxThetaPerAd: 800_000})
		if err != nil {
			t.Fatal(err)
		}
		refVal, engVal = exactOf(refCS), exactOf(engCS)
		if math.Abs(refVal-engVal) <= 0.1*math.Max(refVal, 1) {
			agree++
		} else {
			t.Logf("trial %d CS: reference %v vs engine %v", trial, refVal, engVal)
		}
	}
	// Tie-breaking on near-equal marginals can differ; require agreement
	// on the large majority of runs.
	if agree < 2*trials-2 {
		t.Errorf("engine agreed with reference on only %d/%d comparisons", agree, 2*trials)
	}
}
