package shard

import "repro/internal/rrset"

// MergedView is one advertiser's coverage state over a sharded sample:
// the shard-composition analogue of rrset.View. Per-shard state is a
// packed coverage bitset and a synced prefix length; the marginal
// coverage counts of all shards are summed into one plain []int32 per
// node, so CovCount is a load and every sync or tombstone is a ±1 per
// member. MaxCovCount pays for that with an O(n) scan; the engine asks
// it once per growth event, beside the O(n) candidate-heap rebuild that
// follows, and selects per pick from its own heap.
//
// Equivalence contract (fuzz-tested against the single-universe
// oracle): a global prefix of T draws maps to shard-local prefixes
// CountFor(T, s, S); every set of the conceptual single-stream sample
// appears in exactly one shard, so the merged counts equal the oracle's
// counts set for set, and because MaxCovCount is a pure function of
// counts (lowest node ID at the maximum), the greedy pick sequence is
// identical too. Selection marks covered sets shard-locally: CoverBy
// walks each shard's inverted index up to that shard's synced prefix.
type MergedView struct {
	g       *Group
	covered []bitset // per shard, indexed by local set ID
	synced  []int    // per shard, local prefix length
	total   int      // sum of synced — this view's θ
	count   []int32  // node -> live marginal coverage over all shards
	nCov    int
}

var _ rrset.CoverageState = (*MergedView)(nil)

// NewView creates a merged view over the group's current contents.
func NewView(g *Group) *MergedView {
	return NewViewPrefix(g, g.Size())
}

// NewViewPrefix creates a merged view over the first min(limit, Size())
// global draws of the group — the prefix semantics the engine's
// cross-solve cache needs so a pre-grown group replays exactly the
// sample sizes a cold run would have seen.
//
// A shard whose prefix is longer than the rest of it is seeded from its
// inverted-index degrees minus the sets beyond the prefix, so attaching
// a view to a fully grown sample costs O(n) per shard rather than a walk
// over every stored member. The other shards walk their prefix forward,
// which is cheaper when an earlier, larger solve grew a cached group far
// past this view's prefix.
func NewViewPrefix(g *Group, limit int) *MergedView {
	v := &MergedView{
		g:       g,
		covered: make([]bitset, g.NumShards()),
		synced:  make([]int, g.NumShards()),
		count:   make([]int32, g.n),
	}
	limit = min(limit, g.Size())
	for i, u := range g.universes {
		ls := v.shardPrefix(i, limit)
		if u.Size()-ls >= ls {
			continue // SyncTo walks this shard forward
		}
		for x := range v.count {
			v.count[x] += u.NumSetsContaining(int32(x))
		}
		for id := ls; id < u.Size(); id++ {
			for _, x := range u.Set(int32(id)) {
				v.count[x]--
			}
		}
		v.covered[i].extend(ls)
		v.synced[i] = ls
		v.total += ls
	}
	v.SyncTo(limit)
	return v
}

// shardPrefix returns shard i's local share of the first limit global
// draws (limit ≤ Size()), capped at what the shard holds: after a
// partial growth the view syncs only what exists.
func (v *MergedView) shardPrefix(i, limit int) int {
	return min(CountFor(limit, i, len(v.synced)), v.g.universes[i].Size())
}

// Sync integrates every group set added since the last sync; see SyncTo.
func (v *MergedView) Sync() int { return v.SyncTo(v.g.Size()) }

// SyncTo integrates group sets beyond the view's current prefix up to
// (but never beyond) the first min(limit, Size()) global draws,
// returning how many sets were integrated. A limit at or below the
// current prefix is a no-op — views never shrink.
func (v *MergedView) SyncTo(limit int) int {
	limit = min(limit, v.g.Size())
	added := 0
	for i, u := range v.g.universes {
		ls := v.shardPrefix(i, limit)
		if ls <= v.synced[i] {
			continue
		}
		v.covered[i].extend(ls)
		for id := v.synced[i]; id < ls; id++ {
			for _, x := range u.Set(int32(id)) {
				v.count[x]++
			}
		}
		added += ls - v.synced[i]
		v.synced[i] = ls
	}
	v.total += added
	return added
}

// CovCount implements rrset.CoverageState on the merged counts.
func (v *MergedView) CovCount(node int32) int32 { return v.count[node] }

// CoverBy implements rrset.CoverageState: tombstone every live synced
// set containing node, shard-locally, decrementing the merged counts of
// each tombstoned set's members. Allocation-free.
func (v *MergedView) CoverBy(node int32) int {
	newly := 0
	for i, u := range v.g.universes {
		it := u.SetsContaining(node)
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			if int(id) >= v.synced[i] {
				break // ascending IDs: the rest are beyond this view's prefix
			}
			if v.covered[i].get(id) {
				continue
			}
			v.covered[i].set(id)
			newly++
			for _, x := range u.Set(id) {
				v.count[x]--
			}
		}
	}
	v.nCov += newly
	return newly
}

// NumCovered implements rrset.CoverageState.
func (v *MergedView) NumCovered() int { return v.nCov }

// Size implements rrset.CoverageState: the global synced prefix is this
// view's θ.
func (v *MergedView) Size() int { return v.total }

// MaxCovCount implements rrset.CoverageState by an ascending scan of the
// merged counts, with the unsharded reference's exact semantics: the
// lowest eligible node ID at the maximum count (nil eligible = all
// nodes), hence the lowest eligible node when every eligible count is 0,
// and (-1, 0) when no node is eligible.
func (v *MergedView) MaxCovCount(eligible func(v int32) bool) (node int32, count int32) {
	node = -1
	for x, c := range v.count {
		if (node < 0 || c > count) && (eligible == nil || eligible(int32(x))) {
			node, count = int32(x), c
		}
	}
	return node, count
}

// MemoryFootprint implements rrset.CoverageState: only the view's own
// state — the shard universes are accounted by the group's owner.
func (v *MergedView) MemoryFootprint() int64 {
	total := int64(cap(v.count)) * 4
	for i := range v.covered {
		total += v.covered[i].bytes()
	}
	return total
}

// bitset is a packed bit array over local set IDs, grown by extend.
type bitset []uint64

// extend grows the bitset to hold at least n bits, zero-filled.
func (b *bitset) extend(n int) {
	words := (n + 63) / 64
	for len(*b) < words {
		*b = append(*b, 0)
	}
}

func (b bitset) get(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << uint(i&63) }

func (b bitset) bytes() int64 { return int64(cap(b)) * 8 }
