package rrset

// Universe is an append-only store of RR sets with an inverted index,
// shareable by multiple Views. Set IDs are assigned in insertion order,
// so every node's indexed IDs are ascending — Views exploit this to stop
// at their synced prefix. Storage is a chunked flat arena: one []int32
// member buffer, a []uint32 offset table and the segmented CSR inverted
// index (nodeIndex), so steady-state appends allocate nothing per set.
//
// Appending and indexing are separate steps. Add only appends; batch
// growth (AddFrom, AddFromParallel(Ctx)) ends by indexing the batch as
// one segment, and any index read (NumSetsContaining, Invalidate,
// NewViewPrefix, View.CoverBy, StoredBytes) first indexes sets that bare
// Adds left behind. Growth on the engine's paths therefore always ends
// indexed, and concurrent readers of a grown universe never build.
type Universe struct {
	n       int32
	data    []int32
	offsets []uint32 // set id -> start in data; len = Size()+1
	idx     nodeIndex

	// Staleness bookkeeping for incremental repair under graph deltas:
	// stale marks slots whose sets may have observed a mutated arc (see
	// Invalidate), nStale counts them. Repair resamples exactly those
	// slots in place.
	stale  bitset
	nStale int

	// spareData and spareOffsets are the arena and offset table the last
	// Repair displaced: the next Repair recompacts into them instead of
	// allocating a fresh arena.
	spareData    []int32
	spareOffsets []uint32
	// repairBufs are the per-chunk buffers RepairUniverse draws the
	// stale slots' fresh sets into, kept so that a repeated repair at one
	// shape allocates none.
	repairBufs []repairBuf
}

// NewUniverse creates an empty universe over n nodes.
func NewUniverse(n int32) *Universe {
	u := &Universe{n: n, offsets: make([]uint32, 1, 64)}
	u.idx.init(n)
	return u
}

// Add appends one RR set, copying it into the arena. The set is indexed
// by the next batch end or index read.
func (u *Universe) Add(set []int32) {
	u.data = grow(u.data, len(set))
	u.data = append(u.data, set...)
	u.offsets = grow(u.offsets, 1)
	u.offsets = append(u.offsets, uint32(len(u.data)))
	u.stale.appendZero()
}

// index brings the inverted index up to the last stored set on the
// calling goroutine and returns it.
func (u *Universe) index() *nodeIndex {
	u.idx.extend(u.data, u.offsets, 1)
	return &u.idx
}

// Reset empties the universe in place: every arena (set data, offsets,
// index segments, staleness bitset, repair spares) keeps its capacity, so
// refilling it to its earlier size allocates nothing. The engine
// recycles the universes of finished exclusive solves through it.
func (u *Universe) Reset() {
	u.data = u.data[:0]
	u.offsets = u.offsets[:1] // offsets[0] is always 0
	u.idx.reset()
	u.stale.reset()
	u.nStale = 0
}

// AddFrom samples count RR sets into the universe through a reused
// scratch buffer (no per-set allocation).
func (u *Universe) AddFrom(s *Sampler, count int) {
	for i := 0; i < count; i++ {
		s.buf = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
		u.Add(s.buf)
	}
	u.index()
}

// Size returns the number of stored sets.
func (u *Universe) Size() int { return len(u.offsets) - 1 }

// NumSetsContaining returns how many stored sets contain v — the
// inverted-index degree of the node, and the per-node cost bound of
// Invalidate.
func (u *Universe) NumSetsContaining(v int32) int32 { return u.index().deg[v] }

// Set returns the member nodes of set id. The slice aliases the arena;
// treat it as a read-only transient.
func (u *Universe) Set(id int32) []int32 {
	return u.data[u.offsets[id]:u.offsets[id+1]:u.offsets[id+1]]
}

// MemoryFootprint returns the universe's heap bytes (arena, offsets,
// index, staleness bitset, and the spare arena, offsets and draw
// buffers a Repair left behind) in O(index segments + repair chunks).
func (u *Universe) MemoryFootprint() int64 {
	bytes := int64(cap(u.data)+cap(u.spareData))*4 + int64(cap(u.offsets)+cap(u.spareOffsets))*4 +
		u.idx.bytes() + u.stale.bytes()
	for _, b := range u.repairBufs {
		bytes += int64(cap(b.data)+cap(b.ends)) * 4
	}
	return bytes
}

// StoredBytes returns the bytes the stored sample occupies: the lengths
// of the arena, offsets, index and staleness bitset, not their
// capacities, with the index's start arrays counted once, as a
// single-segment index holds them. Unlike MemoryFootprint it is a
// function of the stored sets alone, so a universe recycled from a
// larger sample, or grown in more steps, reports what a fresh one
// holding the same sets does.
func (u *Universe) StoredBytes() int64 {
	return int64(len(u.data)+len(u.offsets))*4 + u.index().storedBytes() + int64(len(u.stale.words))*8
}

// Invalidate marks every stored set containing any of the touched nodes
// as stale, walking the inverted index — exactly the query the index
// answers in O(sets containing v) per node. Touched nodes should be the
// TARGETS of mutated arcs (graph.EdgeRemap.Touched): an RR set's
// reverse BFS examines only the in-arcs of its members, so a set not
// containing a mutated arc's target can never have observed that arc
// and stays valid verbatim. Returns how many sets became newly stale;
// already-stale sets and out-of-range nodes are ignored, so calls
// before one Repair count each set once. The engine invalidates and
// repairs in the same generation swap, so no stale mark outlives it.
func (u *Universe) Invalidate(touched []int32) int {
	newly := 0
	ix := u.index()
	for _, v := range touched {
		if v < 0 || v >= u.n {
			continue
		}
		it := ix.iter(v)
		for id, ok := it.next(); ok; id, ok = it.next() {
			if !u.stale.get(id) {
				u.stale.set(id)
				newly++
			}
		}
	}
	u.nStale += newly
	return newly
}

// InvalidateAll marks every stored set stale, returning how many were
// newly marked. Equivalent to (and tested against) a full rebuild once
// Repair runs.
func (u *Universe) InvalidateAll() int {
	newly := 0
	for id := int32(0); int(id) < u.Size(); id++ {
		if !u.stale.get(id) {
			u.stale.set(id)
			newly++
		}
	}
	u.nStale += newly
	return newly
}

// StaleCount returns the number of sets currently marked stale.
func (u *Universe) StaleCount() int { return u.nStale }

// Repair resamples every stale slot in place: sample is called once per
// stale slot (ascending), appending the replacement set's members onto
// dst and returning the extended slice. Fresh slots keep their exact
// bytes; the arena is recompacted and the inverted index rebuilt, so
// afterwards the universe is indistinguishable from one whose slots
// were all sampled with the repaired contents. Returns the number of
// slots resampled.
//
// Besides the resampling, the cost is one bulk pass over the whole
// universe, whatever the stale fraction: each maximal run of fresh sets
// is copied with one append and its offsets shifted by one constant,
// and the index is rebuilt as one segment by a counting sort
// (nodeIndex.build) — a touched hub appears in sets all over the arena,
// so patching single nodes' lists would not touch less of the index.
// The recompaction writes into the arena and offset table the previous
// Repair displaced, so a repeated repair at one shape allocates no new
// arena.
//
// Repair invalidates every View over this universe — their coverage
// counts reference the pre-repair contents. The engine only repairs
// universes at generation-swap time, when no session (and therefore no
// View) is attached.
func (u *Universe) Repair(sample func(slot int32, dst []int32) []int32) int {
	return u.repair(sample, 1)
}

// repair is Repair with the index build split over chunks set ranges.
func (u *Universe) repair(sample func(slot int32, dst []int32) []int32, chunks int) int {
	if u.nStale == 0 {
		return 0
	}
	size := int32(u.Size())
	newData, newOffsets := u.spareData[:0], u.spareOffsets[:0]
	if cap(newData) < len(u.data) {
		newData = make([]int32, 0, len(u.data))
	}
	if cap(newOffsets) <= int(size) {
		newOffsets = make([]uint32, 0, size+1)
	}
	newOffsets = newOffsets[:size+1]
	repaired := 0
	for id := int32(0); id < size; {
		if u.stale.get(id) {
			newData = sample(id, newData)
			repaired++
			id++
			newOffsets[id] = uint32(len(newData))
			continue
		}
		end := id + 1
		for end < size && !u.stale.get(end) {
			end++
		}
		shift := uint32(len(newData)) - u.offsets[id] // mod 2³²: runs may move either way
		newData = append(newData, u.data[u.offsets[id]:u.offsets[end]]...)
		for k := id + 1; k <= end; k++ {
			newOffsets[k] = u.offsets[k] + shift
		}
		id = end
	}
	u.data, u.spareData = newData, u.data
	u.offsets, u.spareOffsets = newOffsets, u.offsets
	u.idx.reset()
	u.idx.build(u.data, u.offsets, 0, size, chunks)
	u.stale.clear()
	u.nStale = 0
	return repaired
}

// View is one advertiser's coverage state over a Universe prefix — the
// paper's per-ad RR sample as the greedy loops see it. A View sees
// exactly the first `synced` sets; SyncTo extends the prefix after the
// universe has grown. Per-view state is a packed coverage bitset (1 bit
// per set) and one plain []int32 live marginal coverage count per node,
// so CovCount is a load and every sync or tombstone is a ±1 per member;
// the set storage is accounted once by the universe's owner.
// MaxCovCount pays for the plain counts with an O(n) scan: the engine
// asks it once per growth event, beside the O(n) candidate-heap rebuild
// that follows, and selects per pick from its own heap.
//
// Several Views may share one universe (ShareSamples groups, the
// paper's future-work item (i)): ads with identical topic distributions
// draw from the same RR-set distribution, so their samples coincide.
type View struct {
	u        *Universe
	covered  bitset
	count    []int32 // node -> live marginal coverage
	nCovered int
	synced   int
}

// NewView creates a view over the universe's current contents.
func NewView(u *Universe) *View {
	return NewViewPrefix(u, u.Size())
}

// NewViewPrefix creates a view over the first min(limit, Size()) sets of
// the universe. A long-lived universe cache hands prefix views to solver
// sessions so that a universe pre-grown by an earlier session replays
// exactly the sample sizes a cold run would have seen.
//
// When the prefix is longer than the rest of the universe, the counts
// start from the inverted-index degrees minus the sets beyond the
// prefix, so attaching a view to a fully grown sample costs O(n) rather
// than a walk over every stored member. A shorter prefix is walked
// forward, which is cheaper when an earlier, larger solve grew a cached
// universe far past this view's prefix.
func NewViewPrefix(u *Universe, limit int) *View {
	v := &View{u: u, count: make([]int32, u.n)}
	limit = min(limit, u.Size())
	if u.Size()-limit < limit {
		copy(v.count, u.index().deg)
		for id := limit; id < u.Size(); id++ {
			for _, x := range u.Set(int32(id)) {
				v.count[x]--
			}
		}
		v.covered.extend(limit)
		v.synced = limit
	}
	v.SyncTo(limit)
	return v
}

// Sync integrates sets added to the universe since the last sync and
// returns how many were integrated. New sets start uncovered, so every
// member node's marginal coverage grows.
func (v *View) Sync() int {
	return v.SyncTo(v.u.Size())
}

// SyncTo integrates universe sets beyond the view's current prefix up to
// (but never beyond) the first min(limit, Size()) sets, returning how
// many were integrated. A limit at or below the current prefix is a
// no-op — views never shrink.
func (v *View) SyncTo(limit int) int {
	limit = min(limit, v.u.Size())
	if limit <= v.synced {
		return 0
	}
	v.covered.extend(limit)
	for id := v.synced; id < limit; id++ {
		for _, x := range v.u.Set(int32(id)) {
			v.count[x]++
		}
	}
	added := limit - v.synced
	v.synced = limit
	return added
}

// CovCount returns the marginal coverage of node: the number of live
// (uncovered) synced sets containing it.
func (v *View) CovCount(node int32) int32 { return v.count[node] }

// CoverBy tombstones every live synced set containing node, decrementing
// the counts of each tombstoned set's members, and returns how many sets
// it covered. Allocation-free.
func (v *View) CoverBy(node int32) int {
	newly := 0
	it := v.u.index().iter(node)
	for id, ok := it.next(); ok; id, ok = it.next() {
		if int(id) >= v.synced {
			break // ascending IDs: the rest are beyond this view's prefix
		}
		if v.covered.get(id) {
			continue
		}
		v.covered.set(id)
		newly++
		for _, x := range v.u.Set(id) {
			v.count[x]--
		}
	}
	v.nCovered += newly
	return newly
}

// NumCovered returns the number of covered sets.
func (v *View) NumCovered() int { return v.nCovered }

// Size returns the synced prefix length: this view's θ.
func (v *View) Size() int { return v.synced }

// MaxCovCount returns the eligible node with the maximum marginal
// coverage, by an ascending scan of the counts: the lowest eligible node
// ID at the maximum (nil eligible = all nodes), hence the lowest
// eligible node when every eligible count is 0, and (-1, 0) when no node
// is eligible.
func (v *View) MaxCovCount(eligible func(int32) bool) (node int32, count int32) {
	node = -1
	for x, c := range v.count {
		if (node < 0 || c > count) && (eligible == nil || eligible(int32(x))) {
			node, count = int32(x), c
		}
	}
	return node, count
}

// MemoryFootprint returns the view's own heap bytes — counts and
// coverage bitset; the universe is accounted once by its owner.
func (v *View) MemoryFootprint() int64 {
	return int64(cap(v.count))*4 + v.covered.bytes()
}
