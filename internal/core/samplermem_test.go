package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// Sampler scratch is O(Workers·n) per engine run, independent of the
// number of advertisers: every ad's streams borrow the same engine-wide
// pool of Workers visited arrays, where the pre-pool engine kept
// 2·h·Workers of them. This is the memory-regression guard for the
// Table 3 reproduction.
func TestEngineSamplerMemoryIndependentOfAds(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var footprints []int64
		for _, h := range []int{2, 6} {
			p := smallWCProblem(h, 61)
			n := int64(p.Graph.NumNodes())
			_, stats, err := solveWith(p, EngineOptions{Workers: workers}, Options{Mode: ModeCostSensitive,
				Epsilon: 0.3, Seed: 17, MaxThetaPerAd: 20000})
			if err != nil {
				t.Fatalf("workers=%d h=%d: %v", workers, h, err)
			}
			if stats.SamplerMemoryBytes <= 0 {
				t.Fatalf("workers=%d h=%d: sampler memory not accounted", workers, h)
			}
			// Workers visited arrays of 8n bytes plus a generous BFS-queue
			// allowance — nowhere near the 2·h·Workers·8n of the old design.
			if limit := int64(workers) * (8*n + 4*n); stats.SamplerMemoryBytes > limit {
				t.Errorf("workers=%d h=%d: sampler scratch %d bytes exceeds O(Workers·n) bound %d",
					workers, h, stats.SamplerMemoryBytes, limit)
			}
			footprints = append(footprints, stats.SamplerMemoryBytes)
		}
		// Tripling h must not add scratch beyond queue jitter (strictly
		// less than one additional 8n visited array).
		n := int64(smallWCProblem(2, 61).Graph.NumNodes())
		if grown := footprints[1] - footprints[0]; grown >= 8*n {
			t.Errorf("workers=%d: sampler scratch grew with h: h=2 %d vs h=6 %d",
				workers, footprints[0], footprints[1])
		}
	}
}

// The ShareSamples grouping key must treat numerically identical topic
// distributions as identical: -0.0 vs 0.0 and NaN vs NaN format
// differently under %v but describe the same (or an equally invalid)
// distribution.
func TestGammaKeyNormalization(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if gammaKey([]float64{1, 0}) != gammaKey([]float64{1, negZero}) {
		t.Error("gammaKey distinguishes 0.0 from -0.0")
	}
	if gammaKey([]float64{math.NaN()}) != gammaKey([]float64{math.NaN()}) {
		t.Error("gammaKey distinguishes NaN from NaN")
	}
	if gammaKey([]float64{1, 0}) == gammaKey([]float64{0, 1}) {
		t.Error("gammaKey collapses distinct distributions")
	}
	if gammaKey([]float64{0.5, 0.5}) == gammaKey([]float64{0.5, 0.25}) {
		t.Error("gammaKey collapses distinct values")
	}
}

// twoTopicProblem builds a 2-topic instance with explicit per-ad gammas,
// for exercising the ShareSamples grouping.
func twoTopicProblem(gammas []topic.Distribution, seed uint64) *Problem {
	rng := xrand.New(seed)
	g := gen.RMAT(256, 1500, gen.DefaultRMAT, rng)
	model := topic.NewTICRandom(g, topic.TICParams{
		L: 2, Activity: 0.6, Levels: []float32{0.1, 0.01}, Weights: []float64{0.5, 0.5},
	}, rng)
	ads := make([]topic.Ad, len(gammas))
	for i := range ads {
		ads[i] = topic.Ad{ID: i, Gamma: gammas[i], CPE: 1.5, Budget: 90}
	}
	sigma := incentive.SingletonsOutDegree(g)
	incs := make([]*incentive.Table, len(gammas))
	tab := incentive.Build(incentive.Linear, 0.2, sigma)
	for i := range incs {
		incs[i] = tab
	}
	return &Problem{Graph: g, Model: model, Ads: ads, Incentives: incs}
}

// Ads whose gammas differ only by the sign of a zero weight draw from the
// same RR-set distribution (a zero weight contributes nothing to Eq. 1),
// so under ShareSamples they must land in one group and reproduce the
// all-positive-zero run exactly. The old fmt.Sprintf("%v") key split them
// into two universes.
func TestEngineShareSamplesNegativeZeroGamma(t *testing.T) {
	negZero := math.Copysign(0, -1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 71,
		MaxThetaPerAd: 20000, ShareSamples: true}

	mixed := twoTopicProblem([]topic.Distribution{{1, 0}, {1, negZero}}, 73)
	aMixed, sMixed, err := solveFresh(mixed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sMixed.ShareGroups != 1 {
		t.Fatalf("-0.0/0.0 gammas split into %d sharing groups, want 1", sMixed.ShareGroups)
	}

	plain := twoTopicProblem([]topic.Distribution{{1, 0}, {1, 0}}, 73)
	aPlain, sPlain, err := solveFresh(plain, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, aPlain, aMixed)
	if sMixed.TotalRRSets != sPlain.TotalRRSets {
		t.Errorf("RR set counts differ: %d (mixed zeros) vs %d (plain)",
			sMixed.TotalRRSets, sPlain.TotalRRSets)
	}
}
