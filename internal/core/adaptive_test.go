package core

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/xrand"
)

func TestWorldBasics(t *testing.T) {
	p := Fig1Instance() // all probabilities 1
	probs := p.EdgeProbs(0)
	w := newWorldForTest(p, probs, 1)
	// With p=1 every arc is live: seeding a reaches {a,x,y}.
	if got := w.Activate([]int32{1}); got != 3 {
		t.Errorf("Activate(a) = %d, want 3", got)
	}
	// Incremental: adding c reaches {c,z,w} — 3 more.
	if got := w.Activate([]int32{2}); got != 3 {
		t.Errorf("Activate(c) = %d, want 3", got)
	}
	if w.NumActivated() != 6 {
		t.Errorf("NumActivated = %d, want 6", w.NumActivated())
	}
	// Re-activating is free.
	if got := w.Activate([]int32{1, 2}); got != 0 {
		t.Errorf("re-activation counted %d", got)
	}
}

// Incremental activation must equal batch activation in any world.
func TestWorldIncrementalConsistency(t *testing.T) {
	p := smallWCProblem(1, 31)
	probs := p.EdgeProbs(0)
	for trial := uint64(0); trial < 10; trial++ {
		w1 := newWorldForTest(p, probs, trial)
		w2 := newWorldForTest(p, probs, trial)
		seeds := []int32{0, 5, 9, 13}
		w1.Activate(seeds)
		for _, s := range seeds {
			w2.Activate([]int32{s})
		}
		if w1.NumActivated() != w2.NumActivated() {
			t.Fatalf("trial %d: batch %d vs incremental %d",
				trial, w1.NumActivated(), w2.NumActivated())
		}
	}
}

func TestAdaptiveRunBasics(t *testing.T) {
	p := smallWCProblem(3, 41)
	res, err := AdaptiveRun(p, AdaptiveOptions{
		Engine:    Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000},
		Rounds:    3,
		WorldSeed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no adaptive rounds executed")
	}
	if res.AdaptiveRevenue <= 0 || res.OneShotRevenue <= 0 {
		t.Fatalf("revenues not positive: adaptive %v one-shot %v",
			res.AdaptiveRevenue, res.OneShotRevenue)
	}
	// Committed seeds must be disjoint across ads (partition matroid).
	seen := map[int32]bool{}
	for _, seeds := range res.AdaptiveSeeds {
		for _, u := range seeds {
			if seen[u] {
				t.Fatalf("node %d committed twice", u)
			}
			seen[u] = true
		}
	}
	// Round records are self-consistent with the final seed sets.
	total := 0
	for _, r := range res.Rounds {
		for _, c := range r.Committed {
			total += c
		}
	}
	if got := len(seen); got != total {
		t.Errorf("round records commit %d seeds, final sets have %d", total, got)
	}
}

// In expectation over worlds, adaptivity should not lose to one-shot:
// averaged over several world realizations, adaptive realized revenue is
// at least ~95% of one-shot (it re-invests under-performing budgets).
func TestAdaptiveCompetitiveWithOneShot(t *testing.T) {
	p := smallWCProblem(2, 42)
	var adaptive, oneShot float64
	for world := uint64(0); world < 5; world++ {
		res, err := AdaptiveRun(p, AdaptiveOptions{
			Engine:    Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000},
			Rounds:    3,
			WorldSeed: 1000 + world,
		})
		if err != nil {
			t.Fatal(err)
		}
		adaptive += res.AdaptiveRevenue
		oneShot += res.OneShotRevenue
	}
	if adaptive < 0.95*oneShot {
		t.Errorf("adaptive %.1f clearly below one-shot %.1f over 5 worlds", adaptive, oneShot)
	}
}

func TestAdaptiveRespectsForbiddenAndExcluded(t *testing.T) {
	p := smallWCProblem(2, 43)
	// Directly exercise the engine options the adaptive loop relies on.
	forbidden := []int32{0, 1, 2, 3, 4}
	excluded := [][]int32{{5, 6}, {7, 8}}
	alloc, _, err := solveFresh(p, Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000,
		ForbiddenNodes: forbidden, ExcludedNodes: excluded,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seeds := range alloc.Seeds {
		for _, u := range seeds {
			for _, f := range forbidden {
				if u == f {
					t.Fatalf("forbidden node %d seeded", u)
				}
			}
			for _, x := range excluded[i] {
				if u == x {
					t.Fatalf("excluded node %d seeded for ad %d", u, i)
				}
			}
		}
	}
	// Excluded-for-ad-0 nodes may still serve ad 1 — verify no error and
	// shape only; membership is allowed but not required.
	if _, _, err := solveFresh(p, Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000,
		ExcludedNodes: [][]int32{{0}},
	}); err == nil {
		t.Error("expected error for ExcludedNodes with wrong arity")
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	p := smallWCProblem(2, 44)
	opt := AdaptiveOptions{
		Engine:    Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000},
		Rounds:    2,
		WorldSeed: 7,
	}
	r1, err := AdaptiveRun(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AdaptiveRun(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.AdaptiveRevenue-r2.AdaptiveRevenue) > 1e-12 {
		t.Error("adaptive run not deterministic")
	}
}

// newWorldForTest realizes a possible world of the problem's ad-0 IC
// instance with a fixed seed.
func newWorldForTest(p *Problem, probs []float32, seed uint64) *cascade.World {
	return cascade.NewWorld(p.Graph, probs, xrand.New(seed))
}
