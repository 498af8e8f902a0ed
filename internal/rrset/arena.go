package rrset

import "sort"

// This file holds the flat storage substrate of Universe: chunk-quantized
// slice growth, and the inverted node → set-ID index stored as per-node
// chains of fixed-size blocks inside one flat arena. Together with the
// []int32 member arena + []uint32 offset table (CSR-style, like
// internal/dataset's graph snapshot) they replace the pre-refactor layout
// of one heap allocation per RR set plus one growable slice per node —
// the layout whose pointer chasing and per-set headers dominated both
// runtime and resident memory at scale.

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

// idxInline is the number of set IDs stored inline per node before a
// node spills into overflow blocks; idxBlockIDs is the number of IDs per
// overflow block (each block additionally spends one slot on its link).
// RR-set membership is heavy-tailed — in sparse regimes most nodes
// appear in only a couple of sets — so two inline slots absorb the
// majority of nodes with zero block overhead, while hubs amortize the
// 1/idxBlockIDs link cost across long chains.
const (
	idxInline   = 2
	idxBlockIDs = 4
)

// nodeIndex is the inverted node → set-ID index. The first idxInline IDs
// of every node live inline in a fixed flat array; the remainder go to
// per-node chains of fixed-size blocks in one flat []int32 arena. Block
// layout is [link, id₀ … id₃]; the chain is circular through the link
// slots — more[v] points at the TAIL block and the tail's link points at
// the FIRST — so appends are O(1) with a single per-node word and no
// separate tail array. IDs are appended in insertion order, so iteration
// yields them ascending — the invariant prefix Views rely on to stop at
// their synced boundary. Appends touch only the tail block and therefore
// never move or rebuild earlier entries; allocation happens only when an
// arena itself grows (amortized, chunk-quantized). rebuild builds the
// index over a whole arena at once (Universe.Repair) with the same
// iteration order, and later pushes extend its chains like any other.
type nodeIndex struct {
	blocks []int32 // flat overflow-block arena
	inline []int32 // idxInline slots per node: the first IDs, in order
	more   []int32 // node -> tail overflow block offset, -1 when none
	deg    []int32 // node -> total IDs ever appended (covered included)
}

// init sizes the index for n nodes, reusing prior backing arrays when
// large enough.
func (ix *nodeIndex) init(n int32) {
	if cap(ix.more) < int(n) {
		ix.inline = make([]int32, idxInline*int(n))
		ix.more = make([]int32, n)
		ix.deg = make([]int32, n)
	}
	ix.inline = ix.inline[:idxInline*int(n)]
	ix.more = ix.more[:n]
	ix.deg = ix.deg[:n]
	ix.reset()
}

// reset empties the index, keeping every backing array's capacity.
// Inline slots keep stale values; deg guards every read.
func (ix *nodeIndex) reset() {
	ix.blocks = ix.blocks[:0]
	for i := range ix.more {
		ix.more[i] = -1
		ix.deg[i] = 0
	}
}

// push appends set ID id to node v's list. Amortized allocation-free:
// at most one arena growth per arenaChunk of block slots.
func (ix *nodeIndex) push(v, id int32) {
	d := ix.deg[v]
	if d < idxInline {
		ix.inline[idxInline*v+d] = id
		ix.deg[v] = d + 1
		return
	}
	slot := (d - idxInline) % idxBlockIDs
	if slot == 0 {
		o := int32(len(ix.blocks))
		ix.blocks = grow(ix.blocks, idxBlockIDs+1)
		ix.blocks = ix.blocks[:o+idxBlockIDs+1]
		if tail := ix.more[v]; tail < 0 {
			ix.blocks[o] = o // single block: circularly linked to itself
		} else {
			ix.blocks[o] = ix.blocks[tail] // new tail links to the first
			ix.blocks[tail] = o
		}
		ix.more[v] = o
	}
	ix.blocks[ix.more[v]+1+slot] = id
	ix.deg[v] = d + 1
}

// rebuild replaces the index with one over the sets of a CSR arena (set
// id's members are data[offsets[id]:offsets[id+1]]) by a counting sort,
// not one push per member, split over chunks contiguous set-ID ranges of
// about equal member counts. Each range counts its nodes' occurrences
// concurrently; a sequential pass turns the counts into every range's
// per-node fill cursors, takes each node's degree, and lays the node's
// overflow chain out as one contiguous run of [link, id×idxBlockIDs]
// blocks in the reused blocks arena, linked in order with the tail's
// link pointing back at the first, so later pushes extend it like any
// pushed chain. The ranges then fill their IDs concurrently into the
// disjoint positions their cursors own, and a last O(n) sweep points
// more at each chain's tail. Every chunk count lays deg, inline, blocks
// and more out byte for byte alike; iteration order and deg equal what
// per-set pushes of the same arena give, only the block layout differs.
func (ix *nodeIndex) rebuild(data []int32, offsets []uint32, chunks int) {
	sets := len(offsets) - 1
	bounds := make([]int, chunks+1) // range k holds sets [bounds[k], bounds[k+1])
	for k := 1; k < chunks; k++ {
		at := uint32(uint64(len(data)) * uint64(k) / uint64(chunks))
		bounds[k] = sort.Search(sets, func(id int) bool { return offsets[id] >= at })
	}
	bounds[chunks] = sets
	// cur[k] holds range k's per-node counts, then its fill cursors. The
	// last range's array is deg, so its cursors end at every degree.
	n := len(ix.deg)
	counts := make([]int32, (chunks-1)*n)
	cur := make([][]int32, chunks)
	for k := range cur[:chunks-1] {
		cur[k] = counts[k*n : (k+1)*n : (k+1)*n]
	}
	cur[chunks-1] = ix.deg
	fanOut(chunks, func(k int) {
		c := cur[k]
		if k == chunks-1 {
			clear(c)
		}
		for _, v := range data[offsets[bounds[k]]:offsets[bounds[k+1]]] {
			c[v]++
		}
	})
	total := 0
	for v := range ix.more {
		d := int32(0)
		for _, c := range cur {
			c[v], d = d, d+c[v]
		}
		if d <= idxInline {
			ix.more[v] = -1
			continue
		}
		ix.more[v] = int32(total) // first block until the last sweep
		total += int(overflowBlocks(d)) * (idxBlockIDs + 1)
	}
	ix.blocks = grow(ix.blocks[:0], total)[:total]
	end := int32(total) // chains are laid in node order: v's ends where v+1's starts
	for v := len(ix.more) - 1; v >= 0; v-- {
		first := ix.more[v]
		if first < 0 {
			continue
		}
		tail := end - (idxBlockIDs + 1)
		for o := first; o < tail; o += idxBlockIDs + 1 {
			ix.blocks[o] = o + idxBlockIDs + 1
		}
		ix.blocks[tail] = first
		end = first
	}
	fanOut(chunks, func(k int) {
		ix.fill(cur[k], data, offsets[bounds[k]:bounds[k+1]+1], int32(bounds[k]))
	})
	for v, first := range ix.more {
		if first >= 0 {
			ix.more[v] = first + (overflowBlocks(ix.deg[v])-1)*(idxBlockIDs+1)
		}
	}
}

// fill is one rebuild range's fill pass: it writes the IDs of the sets
// first, first+1, … (members data[ends[i]:ends[i+1]] for the i-th) at
// the positions the range's per-node cursors cur point at, advancing
// them. It is a method rather than a closure over rebuild's locals:
// the closure spilled its loop counters to the stack and filled about
// 20% slower on one goroutine.
func (ix *nodeIndex) fill(cur, data []int32, ends []uint32, first int32) {
	for i := 0; i+1 < len(ends); i++ {
		id := first + int32(i)
		for _, v := range data[ends[i]:ends[i+1]] {
			d := cur[v]
			if d < idxInline {
				ix.inline[idxInline*v+d] = id
			} else {
				// The j-th overflow ID sits past the first block's link
				// and one more link per full block before it.
				j := uint32(d - idxInline)
				ix.blocks[uint32(ix.more[v])+1+j+j/idxBlockIDs] = id
			}
			cur[v] = d + 1
		}
	}
}

// overflowBlocks returns how many overflow blocks a node of degree
// d > idxInline occupies.
func overflowBlocks(d int32) int32 {
	return (d - idxInline + idxBlockIDs - 1) / idxBlockIDs
}

// bytes reports the index's heap footprint.
func (ix *nodeIndex) bytes() int64 {
	return int64(cap(ix.blocks))*4 + int64(cap(ix.inline))*4 +
		int64(cap(ix.more))*4 + int64(cap(ix.deg))*4
}

// idxIter walks one node's set-ID list in ascending ID order. It is a
// plain value, so iteration allocates nothing.
type idxIter struct {
	ix  *nodeIndex
	v   int32
	pos int32 // next inline slot while pos < idxInline
	o   int32 // current overflow block; -1 before entering overflow
	i   int32 // position within the current block
	rem int32 // IDs left to yield
}

// iter starts an iteration over the sets containing v.
func (ix *nodeIndex) iter(v int32) idxIter {
	return idxIter{ix: ix, v: v, o: -1, rem: ix.deg[v]}
}

// next returns the next set ID, or ok=false when the list is exhausted.
func (it *idxIter) next() (id int32, ok bool) {
	if it.rem == 0 {
		return 0, false
	}
	it.rem--
	if it.pos < idxInline {
		id = it.ix.inline[idxInline*it.v+it.pos]
		it.pos++
		return id, true
	}
	if it.o < 0 {
		// Enter overflow at the first block: the tail's circular link.
		it.o = it.ix.blocks[it.ix.more[it.v]]
	} else if it.i == idxBlockIDs {
		it.o = it.ix.blocks[it.o]
		it.i = 0
	}
	id = it.ix.blocks[it.o+1+it.i]
	it.i++
	return id, true
}
