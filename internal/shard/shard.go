// Package shard partitions one deterministic RR-set sample across S
// independent shards so sampling parallelizes beyond a single arena and
// a single stream, while the allocation engine keeps running on exact
// merged coverage counts.
//
// The partition is by global draw index: draw i of the conceptual
// single-stream sample belongs to shard i mod S, and shard s draws its
// subsequence from its own deterministic stream seeded StreamSeed(seed,
// s). Every shard samples into its own arena-backed rrset.Universe through
// its own scratch pool, so S shards sample with S·Workers-way
// parallelism and no shared mutable state. MergedView (view.go) then
// recombines the shards behind the rrset.CoverageState interface: the
// greedy loops in core/im run unchanged on summed counts.
//
// Determinism contract: the sample is a pure function of (seed, S),
// whatever each pool's Workers/BatchSize. StreamSeed(seed, 0) == seed, so
// S=1 reproduces the unsharded rrset.Stream sequence bit for bit — the
// property core's seed-pinned golden tests assert end to end.
package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/rrset"
)

// shardSeedMix is the odd multiplier deriving per-shard stream seeds
// (the splitmix64 finalizer constant). It is deliberately distinct from
// the increment rrset derives per-slot seeds with, so the shards of one
// base seed do not share slot seeds in a simple pattern.
const shardSeedMix = 0xbf58476d1ce4e5b9

// StreamSeed returns the sampling-stream seed of shard s under the
// group's base seed: seed ⊕ s·shardSeedMix. Shard 0 keeps the base seed
// unchanged, which is what makes a 1-shard group bit-identical to the
// unsharded sampler.
func StreamSeed(seed uint64, s int) uint64 {
	return seed ^ uint64(s)*shardSeedMix
}

// CountFor returns how many of the first total global draws land in
// shard s of S: the draws i < total with i mod S == s.
func CountFor(total, s, numShards int) int {
	if total <= s {
		return 0
	}
	return (total + numShards - 1 - s) / numShards
}

// Group is one sharded RR-set sample: S universes growing in lockstep
// under the global-draw partition, each fed by its own deterministic
// stream on its own scratch pool. Each stream's next slot is its
// universe's size. A Group is stateful (its streams advance) and must
// not be grown from multiple goroutines at once;
// concurrent read-only access (views, footprint queries) is safe once a
// Grow has returned.
type Group struct {
	n         int32
	universes []*rrset.Universe
	streams   []*rrset.Stream
}

// NewGroup builds a group of len(pools) shards over an n-node graph for
// one ad's arc probabilities. Shard s samples through pools[s] with a
// stream seeded StreamSeed(seed, s); passing a single pool yields the
// degenerate 1-shard group whose draws are bit-identical to
// pools[0].NewStream(probs, seed).
func NewGroup(n int32, pools []*rrset.Pool, probs rrset.SampleProbs, seed uint64) *Group {
	if len(pools) == 0 {
		panic("shard: NewGroup needs at least one pool")
	}
	g := &Group{
		n:         n,
		universes: make([]*rrset.Universe, len(pools)),
		streams:   make([]*rrset.Stream, len(pools)),
	}
	for s, p := range pools {
		g.universes[s] = rrset.NewUniverse(n)
		g.streams[s] = p.NewStream(probs, StreamSeed(seed, s))
	}
	return g
}

// NumShards returns S.
func (g *Group) NumShards() int { return len(g.universes) }

// NumNodes returns the node-space size of the group's universes.
func (g *Group) NumNodes() int32 { return g.n }

// Universe returns shard s's universe (for repair and tests).
func (g *Group) Universe(s int) *rrset.Universe { return g.universes[s] }

// Size returns the total number of stored sets across all shards.
func (g *Group) Size() int {
	total := 0
	for _, u := range g.universes {
		total += u.Size()
	}
	return total
}

// Grow extends the group to total global draws, sampling every shard's
// share concurrently (one goroutine per shard that has work; each
// shard's pool bounds its internal sampling parallelism). Growth is
// append-only: a shard already holding its share of total is left
// alone. A canceled Grow leaves every shard an exact prefix of its
// stream, possibly of uneven lengths, and a later Grow continues the
// uncanceled sample.
func (g *Group) Grow(ctx context.Context, total int) error {
	s := len(g.universes)
	var wg sync.WaitGroup
	errs := make([]error, s)
	for i := 0; i < s; i++ {
		delta := CountFor(total, i, s) - g.universes[i].Size()
		if delta <= 0 {
			continue
		}
		wg.Add(1)
		go func(i, delta int) {
			defer wg.Done()
			errs[i] = g.universes[i].AddFromParallelCtx(ctx, g.streams[i], delta)
		}(i, delta)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Restream moves every shard's stream onto the given pools and
// probabilities — the generation-carry hook. seed must be the group's
// base seed: each new stream resumes at its universe's size, so once
// the carried universes are repaired, later growth draws exactly what a
// group built cold on the new generation would. len(pools) must equal
// NumShards.
func (g *Group) Restream(pools []*rrset.Pool, probs rrset.SampleProbs, seed uint64) {
	if len(pools) != len(g.streams) {
		panic(fmt.Sprintf("shard: Restream with %d pools for %d shards", len(pools), len(g.streams)))
	}
	for s, p := range pools {
		g.streams[s] = p.NewStreamAt(probs, StreamSeed(seed, s), g.universes[s].Size())
	}
}

// Reset empties every shard universe in place, keeping its arena
// capacity (rrset.Universe.Reset), and restarts each shard's stream at
// slot 0 on the given pools: the group then samples exactly what
// NewGroup(n, pools, probs, seed) would, without regrowing its arenas
// from empty. len(pools) must equal NumShards.
func (g *Group) Reset(pools []*rrset.Pool, probs rrset.SampleProbs, seed uint64) {
	for _, u := range g.universes {
		u.Reset()
	}
	g.Restream(pools, probs, seed)
}

// NumSetsContaining sums the shards' inverted-index degrees of v — the
// merged count MergedView's coverage queries are built on.
func (g *Group) NumSetsContaining(v int32) int32 {
	var total int32
	for _, u := range g.universes {
		total += u.NumSetsContaining(v)
	}
	return total
}

// Invalidate marks every stored set containing any touched node stale,
// shard-locally, returning how many sets became newly stale across the
// group.
func (g *Group) Invalidate(touched []int32) int {
	newly := 0
	for _, u := range g.universes {
		newly += u.Invalidate(touched)
	}
	return newly
}

// StaleCount returns the number of stale sets across all shards.
func (g *Group) StaleCount() int {
	total := 0
	for _, u := range g.universes {
		total += u.StaleCount()
	}
	return total
}

// StaleFraction returns StaleCount()/Size(), or 0 for an empty group.
func (g *Group) StaleFraction() float64 {
	size := g.Size()
	if size == 0 {
		return 0
	}
	return float64(g.StaleCount()) / float64(size)
}

// StoredBytes returns the summed stored-sample bytes of the shard
// universes (rrset.Universe.StoredBytes): a function of the sample
// alone, whatever capacity recycled arenas carry.
func (g *Group) StoredBytes() int64 {
	var total int64
	for _, u := range g.universes {
		total += u.StoredBytes()
	}
	return total
}

// MemoryFootprint returns the summed heap bytes of the shard universes.
func (g *Group) MemoryFootprint() int64 {
	var total int64
	for _, u := range g.universes {
		total += u.MemoryFootprint()
	}
	return total
}
