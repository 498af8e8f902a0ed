package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// seedsHash collapses an allocation's seed lists (order-sensitive) into
// one FNV-64a value so golden expectations stay one line per case.
func seedsHash(alloc *Allocation) uint64 {
	h := fnv.New64a()
	for i, seeds := range alloc.Seeds {
		fmt.Fprintf(h, "ad%d:", i)
		for _, u := range seeds {
			fmt.Fprintf(h, "%d,", u)
		}
	}
	return h.Sum64()
}

// Seed-pinned golden outputs for the one-pass (Han–Cui) modes, asserted
// at Workers 1 and 4 alike. These pin the determinism contract: for a
// fixed Seed the allocation is machine- and Workers-independent, so any
// change to sampling order, the one-shot sizing, or candidate selection
// shows up as a diff here.
func TestOnePassGolden(t *testing.T) {
	p := smallWCProblem(4, 31)
	cases := []struct {
		mode    Mode
		hash    uint64
		revenue float64
		seeds   []int
	}{
		{ModeOnePassCostAgnostic, 0x5fac2e55d06cb996, 261.686478, []int{2, 6, 3, 2}},
		{ModeOnePassCostSensitive, 0xdc85f8e8dfbc460e, 295.168165, []int{36, 60, 26, 29}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", tc.mode, workers), func(t *testing.T) {
				eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers})
				opt := Options{Mode: tc.mode, Epsilon: 0.3, Seed: 17, MaxThetaPerAd: 30000}
				alloc, stats, err := eng.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := seedsHash(alloc); got != tc.hash {
					t.Errorf("seeds hash = %#x, want %#x (seeds %v)", got, tc.hash, alloc.Seeds)
				}
				if math.Abs(alloc.TotalRevenue()-tc.revenue) > 1e-5 {
					t.Errorf("revenue = %.6f, want %.6f", alloc.TotalRevenue(), tc.revenue)
				}
				for i, want := range tc.seeds {
					if len(alloc.Seeds[i]) != want {
						t.Errorf("ad %d: %d seeds, want %d", i, len(alloc.Seeds[i]), want)
					}
				}
				// One-pass means exactly one growth event per advertiser,
				// all fired before the first seed.
				if stats.GrowthEvents != p.NumAds() {
					t.Errorf("GrowthEvents = %d, want %d (one per ad)", stats.GrowthEvents, p.NumAds())
				}
			})
		}
	}
}

// The new modes are deterministic at Workers=1: two cold engines with
// the same seed must produce bit-identical allocations and stats.
func TestOnePassDeterminism(t *testing.T) {
	p := smallWCProblem(3, 6)
	for _, mode := range []Mode{ModeOnePassCostAgnostic, ModeOnePassCostSensitive} {
		opt := Options{Mode: mode, Epsilon: 0.3, Seed: 42, MaxThetaPerAd: 30000}
		a1, s1, err := engineFor(p, 1).Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		a2, s2, err := engineFor(p, 1).Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		allocationsEqual(t, a1, a2)
		for i := range s1.Theta {
			if s1.Theta[i] != s2.Theta[i] || s1.Kpt[i] != s2.Kpt[i] {
				t.Errorf("%v: θ/KPT drift for ad %d across identical runs", mode, i)
			}
		}
	}
}

// One-pass modes compose with the rest of the engine surface: sample
// sharing runs and stays feasible.
func TestOnePassComposesWithEngineFeatures(t *testing.T) {
	p := smallWCProblem(4, 5)
	for _, mode := range []Mode{ModeOnePassCostAgnostic, ModeOnePassCostSensitive} {
		for _, tc := range []struct {
			name string
			eopt EngineOptions
			opt  Options
		}{
			{"shared", EngineOptions{Workers: 2}, Options{Mode: mode, Epsilon: 0.3, Seed: 3, MaxThetaPerAd: 30000, ShareSamples: true}},
		} {
			eng := NewEngine(p.Graph, p.Model, tc.eopt)
			alloc, stats, err := eng.Solve(context.Background(), p, tc.opt)
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, tc.name, err)
			}
			if err := alloc.ValidateSlack(p, 0.3); err != nil {
				t.Fatalf("%v/%s: %v", mode, tc.name, err)
			}
			if alloc.NumSeeds() == 0 {
				t.Errorf("%v/%s: allocated no seeds", mode, tc.name)
			}
			if stats.GrowthEvents != p.NumAds() {
				t.Errorf("%v/%s: GrowthEvents = %d, want %d", mode, tc.name, stats.GrowthEvents, p.NumAds())
			}
		}
	}
}
