package rrset

import (
	"runtime"
	"slices"

	"repro/internal/xrand"
)

// repairBuf is one RepairUniverse chunk's fresh sets in CSR form: the
// members of its stale slots concatenated, and each set's end offset.
type repairBuf struct {
	data []int32
	ends []uint32
}

// repairChunkMembers is the fewest stored members per RepairUniverse
// chunk and per range of a growth step's index build: a universe (or a
// segment) below twice this repairs (or builds) on the calling goroutine
// alone. On a 2-core VM a two-way split gains nothing at 30k members
// (BenchmarkDeltaRepair/repair-5pct) and 25% at 64k (a delta's repair
// on the tiny dblp preset under weighted cascade).
const repairChunkMembers = 1 << 15

// RepairUniverse resamples exactly the universe's stale slots in place
// on the pool's graph, each from its xrand.SlotSeed(seedKey, slot) RNG —
// the draw a Stream seeded seedKey makes for that slot. Repairing a universe
// a stream of seedKey filled, after invalidating the nodes whose in-arcs
// changed, therefore gives exactly what that stream would emit on the
// new graph. A delta touching few nodes resamples a few slots
// instead of θ sets — the point of invalidation — and then pays one bulk
// pass over the whole universe: run-wise arena recompaction plus a
// counting-sort build of the index as one segment (see Universe.repair).
// Returns the number of slots resampled. The caller must hold whatever
// lock guards the universe; no View may be attached (see
// Universe.repair).
//
// The resampling and the index build fan out over up to GOMAXPROCS
// goroutines, one chunk of stale slots or of set IDs each, whatever the
// pool's Workers: the goroutines borrow the pool's free scratch slots
// first and repair-only extras beyond them (see borrowScratch). Every
// slot's set depends only on its seed and the index build lays out
// alike at any chunk count, so the result is byte-identical to a
// sequential repair and to RebuildUniverse, at any GOMAXPROCS.
func (p *Pool) RepairUniverse(u *Universe, probs SampleProbs, seedKey uint64) int {
	chunks := min(runtime.GOMAXPROCS(0), max(1, len(u.data)/repairChunkMembers))
	return p.repairUniverse(u, probs, seedKey, chunks)
}

// repairUniverse is RepairUniverse over exactly chunks chunks (fewer
// when there are fewer stale slots to resample).
func (p *Pool) repairUniverse(u *Universe, probs SampleProbs, seedKey uint64, chunks int) int {
	if int64(len(probs.p)) != p.g.NumEdges() {
		panic("rrset: repair probs length != graph edges")
	}
	if u.nStale == 0 {
		return 0
	}
	// Each chunk resamples a contiguous run of the stale slots into its
	// own CSR buffer, kept on the universe across repairs and sized at
	// least to the members the slots held before.
	slots := u.stale.appendSet(make([]int32, 0, u.nStale))
	k := min(chunks, len(slots))
	for len(u.repairBufs) < k {
		u.repairBufs = append(u.repairBufs, repairBuf{})
	}
	bufs := u.repairBufs[:k]
	scs, pooled := p.borrowScratch(k)
	fanOut(k, func(c int) {
		own := slots[c*len(slots)/k : (c+1)*len(slots)/k]
		members := 0
		for _, slot := range own {
			members += int(u.offsets[slot+1] - u.offsets[slot])
		}
		b := &bufs[c]
		b.data = slices.Grow(b.data[:0], members+members/4)
		b.ends = slices.Grow(b.ends[:0], len(own))[:len(own)]
		var rng xrand.RNG
		for i, slot := range own {
			rng.Seed(xrand.SlotSeed(seedKey, int(slot)))
			b.data = scs[c].sampleInto(b.data, p.g, probs, &rng)
			b.ends[i] = uint32(len(b.data))
		}
	})
	p.returnScratch(scs, pooled)
	// repair asks for the stale slots in ascending order: the chunks'
	// sets in turn.
	c, i, start := 0, 0, uint32(0)
	return u.repair(func(_ int32, dst []int32) []int32 {
		for i == len(bufs[c].ends) {
			c, i, start = c+1, 0, 0
		}
		end := bufs[c].ends[i]
		dst = append(dst, bufs[c].data[start:end]...)
		i, start = i+1, end
		return dst
	}, chunks)
}

// RebuildUniverse samples a fresh universe of size sets, slot s drawn
// from xrand.New(xrand.SlotSeed(seedKey, s)), one set at a time on one
// scratch slot. It is the sequential cold-start reference that streams
// and RepairUniverse are benchmarked and bit-identity tested against.
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
		rng := xrand.New(xrand.SlotSeed(seedKey, slot))
		buf = sc.sampleInto(buf, p.g, probs, rng)
		u.Add(buf)
	}
	u.index()
	return u
}
