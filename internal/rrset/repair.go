package rrset

import "repro/internal/xrand"

// repairSeedMix is the splitmix64 increment, the same odd constant the
// engine uses to derive per-round and per-generation seeds.
const repairSeedMix = 0x9e3779b97f4a7c15

// repairSeed derives the RNG seed of slot s under seedKey. Each slot's
// seed depends only on (seedKey, s) — not on which other slots are
// stale, nor on the graph generation — which is what makes a partial
// Repair slot-for-slot bit-identical to RebuildUniverse at equal
// seedKey on the same graph.
func repairSeed(seedKey uint64, slot int32) uint64 {
	return seedKey ^ (uint64(slot)+1)*repairSeedMix
}

// RepairUniverse resamples exactly the universe's stale slots in place
// on the pool's graph, using one deterministic RNG per slot seeded from
// (seedKey, slot). A delta touching few nodes resamples a few slots
// instead of θ sets — the point of invalidation — and then pays one bulk
// pass over the whole universe: run-wise arena recompaction plus a
// counting-sort index rebuild (see Universe.Repair). Returns the number
// of slots resampled. The caller must hold whatever lock guards the
// universe; no View may be attached (see Universe.Repair).
func (p *Pool) RepairUniverse(u *Universe, probs SampleProbs, seedKey uint64) int {
	if int64(len(probs.p)) != p.g.NumEdges() {
		panic("rrset: repair probs length != graph edges")
	}
	sc := p.acquire()
	defer p.release(sc)
	return u.Repair(func(slot int32, dst []int32) []int32 {
		rng := xrand.New(repairSeed(seedKey, slot))
		nodes, _ := sc.sampleInto(dst, p.g, probs.p, rng)
		return nodes
	})
}

// RebuildUniverse samples a fresh universe of size sets with the same
// per-slot seeding discipline as RepairUniverse: slot s is drawn from
// xrand.New of the (seedKey, s) seed regardless of history. It is the
// cold-start reference RepairUniverse is benchmarked and bit-identity
// tested against.
func (p *Pool) RebuildUniverse(size int, probs SampleProbs, seedKey uint64) *Universe {
	if int64(len(probs.p)) != p.g.NumEdges() {
		panic("rrset: rebuild probs length != graph edges")
	}
	u := NewUniverse(p.g.NumNodes())
	sc := p.acquire()
	defer p.release(sc)
	var buf []int32
	for slot := 0; slot < size; slot++ {
		buf = buf[:0]
		rng := xrand.New(repairSeed(seedKey, int32(slot)))
		buf, _ = sc.sampleInto(buf, p.g, probs.p, rng)
		u.Add(buf)
	}
	return u
}
