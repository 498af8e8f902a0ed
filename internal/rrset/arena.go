package rrset

import "sort"

// This file holds the flat storage substrate of Universe: chunk-quantized
// slice growth, and the inverted node → set-ID index stored as a short
// list of CSR segments. Together with the []int32 member arena + []uint32
// offset table (CSR-style, like internal/dataset's graph snapshot) they
// replace the pre-refactor layout of one heap allocation per RR set plus
// one growable slice per node — the layout whose pointer chasing and
// per-set headers dominated both runtime and resident memory at scale.

// arenaChunk is the growth quantum (in elements) of the flat arenas.
// Growth is geometric (×1.25) but rounded up to whole chunks, so small
// arenas reach steady state in a handful of allocations and large arenas
// overshoot their final size by at most 25%.
const arenaChunk = 1 << 16

// grow returns s with capacity for at least extra more elements,
// preserving contents and length. Amortized O(1) per appended element.
func grow[T int32 | uint32](s []T, extra int) []T {
	need := len(s) + extra
	if need <= cap(s) {
		return s
	}
	newCap := cap(s) + cap(s)/4
	if newCap < need {
		newCap = need
	}
	newCap = (newCap + arenaChunk - 1) &^ (arenaChunk - 1)
	ns := make([]T, len(s), newCap)
	copy(ns, s)
	return ns
}

// segment is one CSR block of the index: the IDs of the sets in
// [lo, hi) that contain node v are ids[start[v]:start[v+1]] of the
// index's ID array, ascending.
type segment struct {
	lo, hi int32
	start  []int32 // node -> first position in ids; len n+1
}

// nodeIndex is the inverted node → set-ID index: CSR segments over
// contiguous, ascending set-ID ranges that together cover the indexed
// prefix of the arena. Iteration walks the segments in order, so every
// node's IDs come out ascending — the invariant prefix Views rely on to
// stop at their synced boundary. The segments share one ID array that
// parallels the member arena: the IDs of sets [lo, hi) fill exactly
// the positions their members take in the arena.
//
// build, a counting sort over one set range, is the only code that
// writes IDs. extend runs it after each append batch, first merging
// tail segments so that each segment holds more than twice the sets of
// the next (at most ⌊log₂ θ⌋+1 segments for θ sets); repair runs it
// once over the whole recompacted arena. Segments past len(segs) keep
// their start arrays, so refilling an index allocates nothing.
type nodeIndex struct {
	segs []segment
	ids  []int32 // len = the indexed sets' members
	deg  []int32 // node -> sets containing it, over all segments
	b    builder
}

// builder is build's scratch, kept across builds so that a warm
// single-range build allocates nothing.
type builder struct {
	data    []int32
	offsets []uint32
	ids     []int32
	bounds  []int32   // range k holds sets [bounds[k], bounds[k+1])
	cur     [][]int32 // range k's per-node counts, then its fill cursors
}

// init sizes the index for n nodes, reusing prior backing arrays when
// large enough.
func (ix *nodeIndex) init(n int32) {
	if cap(ix.deg) < int(n) {
		ix.deg = make([]int32, n)
	}
	ix.deg = ix.deg[:n]
	ix.reset()
}

// reset empties the index, keeping every array's capacity.
func (ix *nodeIndex) reset() {
	ix.segs = ix.segs[:0]
	ix.ids = ix.ids[:0]
	clear(ix.deg)
}

// indexed returns how many leading sets the segments cover.
func (ix *nodeIndex) indexed() int32 {
	if len(ix.segs) == 0 {
		return 0
	}
	return ix.segs[len(ix.segs)-1].hi
}

// extend indexes the sets of a CSR arena (set id's members are
// data[offsets[id]:offsets[id+1]]) past the last segment. The new
// segment first absorbs every tail segment holding no more than twice
// the sets after it, whose counts leave deg before build adds the
// merged ones. The build fans out over at most workers goroutines, one
// per repairChunkMembers members.
func (ix *nodeIndex) extend(data []int32, offsets []uint32, workers int) {
	size := int32(len(offsets) - 1)
	lo := ix.indexed()
	if lo == size {
		return
	}
	i := len(ix.segs)
	for ; i > 0 && int(ix.segs[i-1].hi-ix.segs[i-1].lo) <= 2*int(size-ix.segs[i-1].hi); i-- {
		s := &ix.segs[i-1]
		for v := range ix.deg {
			ix.deg[v] -= s.start[v+1] - s.start[v]
		}
		lo = s.lo
	}
	ix.segs = ix.segs[:i]
	members := int(offsets[size] - offsets[lo])
	ix.build(data, offsets, lo, size, min(workers, max(1, members/repairChunkMembers)))
}

// build appends one segment over sets [lo, hi) of a CSR arena, whose
// IDs it writes at ids[offsets[lo]:offsets[hi]], and adds its per-node
// counts to deg. It is a counting sort split over chunks contiguous
// set-ID ranges of about equal member counts. Each range counts its
// nodes' occurrences concurrently; a sequential pass turns the counts
// into every range's per-node fill cursors (the last range's are the
// start array, shifted by one); the ranges then fill their IDs
// concurrently into the disjoint positions their cursors own, which
// leaves start[v+1] at the end of v's IDs. Every chunk count lays the
// segment out byte for byte alike.
func (ix *nodeIndex) build(data []int32, offsets []uint32, lo, hi int32, chunks int) {
	if len(ix.segs) == cap(ix.segs) {
		ix.segs = append(ix.segs, segment{})
	} else {
		ix.segs = ix.segs[:len(ix.segs)+1]
	}
	s := &ix.segs[len(ix.segs)-1]
	n := len(ix.deg)
	s.lo, s.hi = lo, hi
	if cap(s.start) <= n {
		s.start = make([]int32, n+1)
	}
	s.start = s.start[:n+1]
	clear(s.start)
	end := int(offsets[hi])
	ix.ids = grow(ix.ids, end-len(ix.ids))[:end]

	b := &ix.b
	b.data, b.offsets, b.ids = data, offsets, ix.ids
	b.bounds = append(b.bounds[:0], lo)
	for k := 1; k < chunks; k++ {
		at := offsets[lo] + uint32(uint64(offsets[hi]-offsets[lo])*uint64(k)/uint64(chunks))
		b.bounds = append(b.bounds, lo+int32(sort.Search(int(hi-lo), func(i int) bool { return offsets[int(lo)+i] >= at })))
	}
	b.bounds = append(b.bounds, hi)
	counts := make([]int32, (chunks-1)*n)
	b.cur = b.cur[:0]
	for k := range chunks - 1 {
		b.cur = append(b.cur, counts[k*n:(k+1)*n:(k+1)*n])
	}
	b.cur = append(b.cur, s.start[1:])

	b.each((*builder).count)
	total := int32(offsets[lo])
	s.start[0] = total
	for v := range n {
		first := total
		for _, c := range b.cur {
			c[v], total = total, total+c[v]
		}
		ix.deg[v] += total - first
	}
	b.each((*builder).fill)
	clear(b.cur)
	b.data, b.offsets, b.ids = nil, nil, nil
}

// each runs phase over every range of the build, concurrently when
// there are several. A single range runs inline and allocates nothing.
func (b *builder) each(phase func(b *builder, k int)) {
	if len(b.cur) == 1 {
		phase(b, 0)
		return
	}
	fanOut(len(b.cur), func(k int) { phase(b, k) })
}

// count is one range's counting pass.
func (b *builder) count(k int) {
	c := b.cur[k]
	for _, v := range b.data[b.offsets[b.bounds[k]]:b.offsets[b.bounds[k+1]]] {
		c[v]++
	}
}

// fill is one range's fill pass: it writes the ID of every set in the
// range at the positions its per-node cursors point at, advancing them.
// It is a method rather than a closure over build's locals: the closure
// spilled its loop counters to the stack and filled about 20% slower on
// one goroutine.
func (b *builder) fill(k int) {
	data, offsets, ids, cur := b.data, b.offsets, b.ids, b.cur[k]
	for id := b.bounds[k]; id < b.bounds[k+1]; id++ {
		for _, v := range data[offsets[id]:offsets[id+1]] {
			ids[cur[v]] = id
			cur[v]++
		}
	}
}

// bytes reports the index's heap footprint, spare start arrays included.
func (ix *nodeIndex) bytes() int64 {
	total := int64(cap(ix.ids) + cap(ix.deg))
	for _, s := range ix.segs[:cap(ix.segs)] {
		total += int64(cap(s.start))
	}
	return total * 4
}

// storedBytes reports the bytes the IDs, degrees and one start array
// occupy: what a single-segment index of the same sets holds, however
// many segments growth left.
func (ix *nodeIndex) storedBytes() int64 {
	return int64(len(ix.ids)+len(ix.deg)+min(len(ix.segs), 1)*(len(ix.deg)+1)) * 4
}

// idxIter walks one node's set-ID list in ascending ID order, segment by
// segment. It is a plain value, so iteration allocates nothing.
type idxIter struct {
	segs []segment // segments not yet entered
	all  []int32   // the index's ID array
	ids  []int32   // v's IDs left in the current segment
	v    int32
}

// iter starts an iteration over the sets containing v.
func (ix *nodeIndex) iter(v int32) idxIter {
	return idxIter{segs: ix.segs, all: ix.ids, v: v}
}

// next returns the next set ID, or ok=false when the list is exhausted.
func (it *idxIter) next() (id int32, ok bool) {
	for len(it.ids) == 0 {
		if len(it.segs) == 0 {
			return 0, false
		}
		s := &it.segs[0]
		it.ids = it.all[s.start[it.v]:s.start[it.v+1]]
		it.segs = it.segs[1:]
	}
	id = it.ids[0]
	it.ids = it.ids[1:]
	return id, true
}
