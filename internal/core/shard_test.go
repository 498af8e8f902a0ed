package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/shard"
)

// TestShardsOneBitIdentical is the shard layer's compatibility golden:
// Shards=1 routes every RR-set store through internal/shard (per-shard
// streams, merged views) yet must reproduce the unsharded engine bit
// for bit — allocations, thetas, seed counts — at both the sequential
// and the parallel sampler, with and without sample sharing.
func TestShardsOneBitIdentical(t *testing.T) {
	p := smallWCProblem(4, 31)
	for _, workers := range []int{1, 4} {
		flat := NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers})
		sharded := NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers, Shards: 1})
		if sharded.Shards() != 1 {
			t.Fatalf("Shards() = %d, want 1", sharded.Shards())
		}
		for _, mode := range []Mode{ModeCostAgnostic, ModeCostSensitive} {
			for _, share := range []bool{false, true} {
				opt := Options{Mode: mode, Epsilon: 0.3, Seed: 17,
					MaxThetaPerAd: 30000, ShareSamples: share}
				want, wantStats, err := flat.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("flat workers=%d mode=%v share=%v: %v", workers, mode, share, err)
				}
				got, gotStats, err := sharded.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("sharded workers=%d mode=%v share=%v: %v", workers, mode, share, err)
				}
				allocationsEqual(t, want, got)
				for i := range wantStats.Theta {
					if wantStats.Theta[i] != gotStats.Theta[i] || wantStats.Kpt[i] != gotStats.Kpt[i] {
						t.Fatalf("workers=%d mode=%v share=%v ad %d: theta/kpt (%d, %v) vs (%d, %v)",
							workers, mode, share, i,
							wantStats.Theta[i], wantStats.Kpt[i], gotStats.Theta[i], gotStats.Kpt[i])
					}
				}
				if wantStats.TotalRRSets != gotStats.TotalRRSets {
					t.Fatalf("workers=%d mode=%v share=%v: RR sets %d vs %d",
						workers, mode, share, wantStats.TotalRRSets, gotStats.TotalRRSets)
				}
				if gotStats.Shards != 1 {
					t.Fatalf("Stats.Shards = %d, want 1", gotStats.Shards)
				}
			}
		}
	}
}

// TestShardsDeterministicAcrossCounts: for any shard count the run is a
// pure function of (Seed, Shards, Workers) — two engines with identical
// configuration agree exactly, and higher shard counts still produce
// feasible allocations with seeds.
func TestShardsDeterministicAcrossCounts(t *testing.T) {
	p := smallWCProblem(3, 41)
	for _, shards := range []int{2, 3, 4} {
		for _, share := range []bool{false, true} {
			opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5,
				MaxThetaPerAd: 30000, ShareSamples: share}
			a := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2, Shards: shards})
			b := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2, Shards: shards})
			allocA, statsA, err := a.Solve(context.Background(), p, opt)
			if err != nil {
				t.Fatalf("shards=%d share=%v: %v", shards, share, err)
			}
			allocB, _, err := b.Solve(context.Background(), p, opt)
			if err != nil {
				t.Fatalf("shards=%d share=%v rerun: %v", shards, share, err)
			}
			allocationsEqual(t, allocA, allocB)
			if err := allocA.ValidateSlack(p, 0.3); err != nil {
				t.Fatalf("shards=%d share=%v infeasible: %v", shards, share, err)
			}
			if allocA.NumSeeds() == 0 {
				t.Fatalf("shards=%d share=%v allocated no seeds", shards, share)
			}
			if statsA.Shards != shards {
				t.Fatalf("Stats.Shards = %d, want %d", statsA.Shards, shards)
			}
		}
	}
}

// TestShardsCachedReplay: on a sharded ShareSamples Engine a re-solve
// hits the universe cache and must replay the cold run bit for bit.
func TestShardsCachedReplay(t *testing.T) {
	p := smallWCProblem(4, 43)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2, Shards: 3})
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 11,
		MaxThetaPerAd: 30000, ShareSamples: true}
	cold, _, err := eng.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eng.CachedUniverses() == 0 {
		t.Fatal("no universes cached after ShareSamples solve")
	}
	warm, _, err := eng.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, cold, warm)
	c := eng.Counters()
	if c.UniverseCacheHits == 0 {
		t.Fatalf("expected cache hits, counters: %+v", c)
	}
}

// TestShardsConcurrentSolves runs 8 concurrent solves on one Shards=4
// Engine (race-detector food: per-shard pools, merged views, the
// universe cache) and checks every same-configuration pair agrees.
func TestShardsConcurrentSolves(t *testing.T) {
	p := smallWCProblem(3, 47)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2, Shards: 4})
	const runs = 8
	allocs := make([]*Allocation, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3,
				Seed: uint64(100 + i%2), MaxThetaPerAd: 30000, ShareSamples: i%4 < 2}
			allocs[i], _, errs[i] = eng.Solve(context.Background(), p, opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	// Same (seed, share) → same allocation, concurrency notwithstanding.
	for i := 0; i < runs; i++ {
		for j := i + 1; j < runs; j++ {
			if i%2 == j%2 && (i%4 < 2) == (j%4 < 2) {
				allocationsEqual(t, allocs[i], allocs[j])
			}
		}
	}
}

// TestShardsApplyDelta: generation swaps on a sharded Engine carry the
// sharded universes (repairing only stale shards), stay deterministic,
// and keep serving feasible allocations.
func TestShardsApplyDelta(t *testing.T) {
	p := smallWCProblem(3, 53)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2, Shards: 2})
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 7,
		MaxThetaPerAd: 30000, ShareSamples: true}
	if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	cached := eng.CachedUniverses()
	if cached == 0 {
		t.Fatal("no universes cached before delta")
	}

	// Remove a few arcs of a well-connected node so some RR sets go stale.
	g, _ := eng.Current()
	var d graph.Delta
	removed := 0
	for u := int32(0); u < g.NumNodes() && removed < 3; u++ {
		if outs := g.OutNeighbors(u); len(outs) > 2 {
			d.RemoveEdges = append(d.RemoveEdges, graph.Edge{U: u, V: outs[0]})
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("test graph has no removable arcs")
	}
	res, err := eng.ApplyDelta(context.Background(), &d)
	if err != nil {
		t.Fatal(err)
	}
	if res.CarriedUniverses != cached {
		t.Fatalf("carried %d of %d universes", res.CarriedUniverses, cached)
	}
	if res.InvalidatedSets == 0 {
		t.Fatal("delta touched arcs but invalidated no RR sets")
	}
	// Default MaxStaleFraction=0 repairs any staleness during the swap.
	if res.RepairedSets == 0 {
		t.Fatal("stale sets were not repaired at MaxStaleFraction=0")
	}

	ng, nm := eng.Current()
	p2 := &Problem{Graph: ng, Model: nm, Ads: p.Ads, Incentives: p.Incentives}
	a1, s1, err := eng.Solve(context.Background(), p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Generation != 1 {
		t.Fatalf("generation = %d, want 1", s1.Generation)
	}
	if err := a1.ValidateSlack(p2, 0.3); err != nil {
		t.Fatal(err)
	}
	a2, _, err := eng.Solve(context.Background(), p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, a1, a2)
}

// A canceled growth can leave a group's shards holding uneven prefixes,
// with the group's total at or above a later session's virtual size
// while a shard lacks its share of it. growUniverse must still bring
// every shard to its share. The uneven group is built directly: extra
// sets go into shard 0 from a stream of its seed, and Restream resumes
// every shard where its universe ends.
func TestGrowUniverseFillsUnevenShards(t *testing.T) {
	p := smallWCProblem(1, 37)
	sn := newSnapshot(p.Graph, p.Model, EngineOptions{Shards: 3}.withDefaults())
	probs := sn.edgeProbsFor(p.Ads[0].Gamma).sampling
	const seed, base, vsize = 5, 300, 330
	g := shard.NewGroup(p.Graph.NumNodes(), sn.pools, probs, seed)
	if err := g.Grow(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	u0 := g.Universe(0)
	u0.AddFromParallel(sn.pools[0].NewStreamAt(probs, shard.StreamSeed(seed, 0), u0.Size()), 40)
	g.Restream(sn.pools, probs, seed)
	if g.Size() < vsize || g.Universe(1).Size() >= shard.CountFor(vsize, 1, 3) {
		t.Fatalf("setup: shard sizes %d/%d/%d do not make the uneven case", u0.Size(), g.Universe(1).Size(), g.Universe(2).Size())
	}
	s := &solver{ctx: context.Background()}
	if err := s.growUniverse(&adGroup{shg: g, vsize: vsize}); err != nil {
		t.Fatal(err)
	}
	cold := shard.NewGroup(p.Graph.NumNodes(), sn.pools, probs, seed)
	if err := cold.Grow(context.Background(), vsize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		u, c := g.Universe(i), cold.Universe(i)
		if u.Size() < c.Size() {
			t.Fatalf("shard %d holds %d sets, its share of %d is %d", i, u.Size(), vsize, c.Size())
		}
		for id := int32(0); int(id) < c.Size(); id++ {
			if !slices.Equal(u.Set(id), c.Set(id)) {
				t.Fatalf("shard %d set %d: %v, cold %v", i, id, u.Set(id), c.Set(id))
			}
		}
	}
}
