package rrset

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// universeBytes serializes a universe's visible contents (every slot's
// member sequence) for bit-identity comparison.
func universeBytes(t *testing.T, u *Universe) []byte {
	t.Helper()
	var buf bytes.Buffer
	for id := int32(0); int(id) < u.Size(); id++ {
		set := u.Set(id)
		if err := binary.Write(&buf, binary.LittleEndian, int32(len(set))); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&buf, binary.LittleEndian, set); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkIndexConsistent verifies the inverted index against a direct
// membership scan of every slot.
func checkIndexConsistent(t *testing.T, u *Universe) {
	t.Helper()
	want := make(map[int32][]int32) // node -> ascending set IDs
	for id := int32(0); int(id) < u.Size(); id++ {
		for _, v := range u.Set(id) {
			want[v] = append(want[v], id)
		}
	}
	for v := int32(0); v < u.n; v++ {
		var got []int32
		it := u.idx.iter(v)
		for id, ok := it.next(); ok; id, ok = it.next() {
			got = append(got, id)
		}
		if len(got) != len(want[v]) {
			t.Fatalf("node %d indexed in %d sets, membership says %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("node %d index chain %v, want %v", v, got, want[v])
			}
		}
		if u.NumSetsContaining(v) != int32(len(got)) {
			t.Fatalf("NumSetsContaining(%d) = %d, chain has %d", v, u.NumSetsContaining(v), len(got))
		}
	}
}

func TestInvalidateMarksExactlyContainingSets(t *testing.T) {
	u := NewUniverse(5)
	sets := [][]int32{{0, 1}, {2}, {1, 3}, {4}, {0, 4}}
	for _, s := range sets {
		u.Add(s)
	}
	if got := u.Invalidate([]int32{1}); got != 2 { // sets 0 and 2
		t.Fatalf("Invalidate({1}) = %d, want 2", got)
	}
	if got := u.StaleCount(); got != 2 {
		t.Fatalf("StaleCount = %d, want 2", got)
	}
	// Re-invalidating the same node is idempotent; a new node adds only
	// its not-yet-stale sets.
	if got := u.Invalidate([]int32{1, 4}); got != 2 { // sets 3 and 4
		t.Fatalf("Invalidate({1,4}) = %d, want 2", got)
	}
	if got := u.StaleCount(); got != 4 {
		t.Fatalf("StaleCount = %d, want 4", got)
	}
	// Out-of-range nodes are ignored.
	if got := u.Invalidate([]int32{-1, 99}); got != 0 {
		t.Fatalf("Invalidate(out-of-range) = %d, want 0", got)
	}
	// Repair must visit exactly the stale slots, ascending.
	var visited []int32
	n := u.Repair(func(slot int32, dst []int32) []int32 {
		visited = append(visited, slot)
		return append(dst, slot%5) // arbitrary single-member replacement
	})
	if n != 4 {
		t.Fatalf("Repair resampled %d slots, want 4", n)
	}
	wantSlots := []int32{0, 2, 3, 4}
	for i := range wantSlots {
		if i >= len(visited) || visited[i] != wantSlots[i] {
			t.Fatalf("Repair visited %v, want %v", visited, wantSlots)
		}
	}
	if u.StaleCount() != 0 {
		t.Fatal("staleness not cleared by Repair")
	}
	// Fresh slot kept its bytes; repaired slots hold the replacements.
	if got := u.Set(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fresh slot 1 = %v, want [2]", got)
	}
	if got := u.Set(3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("repaired slot 3 = %v, want [3]", got)
	}
	checkIndexConsistent(t, u)
}

// TestRepairAllBitIdenticalToRebuild is the invalidate-everything case:
// repairing a fully stale universe must reproduce a cold
// RebuildUniverse bit for bit (Workers=1 pool, pinned seed).
func TestRepairAllBitIdenticalToRebuild(t *testing.T) {
	rng := xrand.New(11)
	g := newTestGraph(rng)
	pool := NewPool(g, PoolOptions{Workers: 1})
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.08
	}
	const size, seedKey = 500, uint64(42)

	// Start from contents sampled by a completely different discipline (a
	// sequential stream at another seed), so identity can only come from
	// the repair itself.
	u := NewUniverse(g.NumNodes())
	st := pool.NewStream(NewSampleProbs(g, probs), 7)
	st.SampleN(size, func(nodes []int32) { u.Add(nodes) })

	if got := u.InvalidateAll(); got != size {
		t.Fatalf("InvalidateAll = %d, want %d", got, size)
	}
	if got := pool.RepairUniverse(u, NewSampleProbs(g, probs), seedKey); got != size {
		t.Fatalf("RepairUniverse = %d, want %d", got, size)
	}
	ref := pool.RebuildUniverse(size, NewSampleProbs(g, probs), seedKey)
	if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
		t.Fatal("repair-all not bit-identical to cold rebuild")
	}
	checkIndexConsistent(t, u)
}

// TestPartialRepairSlotIdentity pins the per-slot contract on the
// production path: a universe a stream filled, invalidated at a few
// nodes whose in-arc probabilities then change, and repaired with the
// stream's own seed on the new probabilities, keeps the exact bytes of
// every untouched slot and equals, as a whole, a cold RebuildUniverse
// on the new probabilities.
func TestPartialRepairSlotIdentity(t *testing.T) {
	rng := xrand.New(13)
	g := newTestGraph(rng)
	pool := NewPool(g, PoolOptions{Workers: 1})
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.08
	}
	const size, seed = 400, uint64(3)

	u := NewUniverse(g.NumNodes())
	pool.NewStream(NewSampleProbs(g, probs), seed).SampleN(size, func(nodes []int32) { u.Add(nodes) })
	before := make([][]int32, size)
	for id := int32(0); int(id) < size; id++ {
		before[id] = append([]int32(nil), u.Set(id)...)
	}

	touched := []int32{0, 17, 63} // a few nodes; the hub 0 makes it non-trivial
	staleBefore := make([]bool, size)
	for id := int32(0); int(id) < size; id++ {
		for _, v := range u.Set(id) {
			if slices.Contains(touched, v) {
				staleBefore[id] = true
			}
		}
	}
	marked := u.Invalidate(touched)
	wantMarked := 0
	for _, s := range staleBefore {
		if s {
			wantMarked++
		}
	}
	if marked != wantMarked {
		t.Fatalf("Invalidate marked %d sets, membership scan says %d", marked, wantMarked)
	}
	if marked == 0 || marked == size {
		t.Fatalf("degenerate staleness %d/%d; pick different touched nodes", marked, size)
	}
	for _, v := range touched {
		for _, e := range g.InEdgeIDs(v) {
			probs[e] = 0.3
		}
	}
	sp := NewSampleProbs(g, probs)

	if got := pool.RepairUniverse(u, sp, seed); got != marked {
		t.Fatalf("RepairUniverse = %d, want %d", got, marked)
	}
	for id := int32(0); int(id) < size; id++ {
		if !staleBefore[id] && !slices.Equal(u.Set(id), before[id]) {
			t.Fatalf("untouched slot %d: %v, want %v", id, u.Set(id), before[id])
		}
	}
	ref := pool.RebuildUniverse(size, sp, seed)
	if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
		t.Fatal("repaired stream universe differs from a cold rebuild on the new probabilities")
	}
	checkIndexConsistent(t, u)
	sameIndex(t, u, ref)

	// Repairing with nothing stale is a no-op.
	if got := pool.RepairUniverse(u, sp, seed); got != 0 {
		t.Fatalf("second RepairUniverse = %d, want 0", got)
	}
}

// TestStreamRepairUnbiased is the regression test for a repair that
// redrew stale slots independently of the stream that filled them: on
// an unchanged graph, repair then under-represented the sets containing
// a touched node (their share fell from q to about q²). A universe a
// stream filled, at Workers 1 and 2, invalidated at 20 nodes and
// repaired with the stream's seed on the same probabilities must come
// back byte for byte.
func TestStreamRepairUnbiased(t *testing.T) {
	g, _ := goldenGraph()
	sp := NewSampleProbs(g, testProbs(g.NumEdges(), 0.05))
	touched := make([]int32, 20)
	isTouched := make([]bool, g.NumNodes())
	for i := range touched {
		touched[i] = int32(97 * i)
		isTouched[touched[i]] = true
	}
	const size, seed = 20000, uint64(5)
	hitShare := func(u *Universe) float64 {
		hits := 0
		for id := int32(0); int(id) < u.Size(); id++ {
			if slices.ContainsFunc(u.Set(id), func(v int32) bool { return isTouched[v] }) {
				hits++
			}
		}
		return float64(hits) / float64(u.Size())
	}
	for _, workers := range []int{1, 2} {
		pool := NewPool(g, PoolOptions{Workers: workers, BatchSize: 64})
		u := NewUniverse(g.NumNodes())
		u.AddFromParallel(pool.NewStream(sp, seed), size)
		want := universeBytes(t, u)
		share := hitShare(u)
		marked := u.Invalidate(touched)
		if marked == 0 {
			t.Fatalf("workers=%d: no set contains a touched node", workers)
		}
		pool.RepairUniverse(u, sp, seed)
		if got := hitShare(u); got != share || !bytes.Equal(universeBytes(t, u), want) {
			t.Fatalf("workers=%d: repair on an unchanged graph moved the universe: share of sets hitting the touched nodes %.4f -> %.4f",
				workers, share, got)
		}
	}
}

// repairBenchGraph builds a denser 1500-node digraph (avg in-degree
// ~15) for the repair-vs-rebuild cost comparison: with per-member
// sampling cost proportional to in-degree, sampling dominates both
// paths and the ratio reflects the stale fraction rather than the
// arena-recompaction floor.
func repairBenchGraph() *graph.Graph {
	rng := xrand.New(21)
	const n, m = 1500, 22500
	b := graph.NewBuilder(n, m)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Int31n(n), rng.Int31n(n))
	}
	return b.Build()
}

// TestRepairSpeedup pins why repair beats a cold rebuild: with ~5% of
// slots stale (400 of 8000), Repair resamples exactly the stale slots,
// each once and in ascending order, and nothing else. The sampler is
// RepairUniverse's own per-slot discipline plus a counter, so the
// result must also equal a RepairUniverse of the same universe bit for
// bit. The wall-clock ratio is only logged — BenchmarkDeltaRepair
// measures it.
func TestRepairSpeedup(t *testing.T) {
	g := repairBenchGraph()
	pool := NewPool(g, PoolOptions{Workers: 1})
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.05
	}
	sp := NewSampleProbs(g, probs)
	const size, seedKey = 8000, uint64(5)

	build := func() *Universe {
		u := NewUniverse(g.NumNodes())
		st := pool.NewStream(sp, 7)
		st.SampleN(size, func(nodes []int32) { u.Add(nodes) })
		return u
	}
	// ~5% staleness: mark every 20th slot directly (node-driven
	// invalidation fractions depend on the graph; the cost model only
	// cares how many slots get resampled).
	mark := func(u *Universe) {
		for id := int32(0); int(id) < size; id += 20 {
			if !u.stale.get(id) {
				u.stale.set(id)
				u.nStale++
			}
		}
	}

	u := build()
	mark(u)
	stale := u.StaleCount()
	if stale != size/20 {
		t.Fatalf("StaleCount = %d, want %d", stale, size/20)
	}
	sc := pool.acquire()
	var visited []int32
	n := u.Repair(func(slot int32, dst []int32) []int32 {
		visited = append(visited, slot)
		return sc.sampleInto(dst, g, sp, xrand.New(xrand.SlotSeed(seedKey, int(slot))))
	})
	pool.release(sc)
	if n != stale || len(visited) != stale {
		t.Fatalf("Repair resampled %d slots (sampler called %d times), want exactly the %d stale", n, len(visited), stale)
	}
	for i, slot := range visited {
		if slot != int32(20*i) {
			t.Fatalf("resample %d hit slot %d, want stale slot %d", i, slot, 20*i)
		}
	}
	if u.StaleCount() != 0 {
		t.Fatalf("StaleCount = %d after repair", u.StaleCount())
	}
	ref := build()
	mark(ref)
	t0 := time.Now()
	pool.RepairUniverse(ref, sp, seedKey)
	repairNS := time.Since(t0).Nanoseconds()
	if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
		t.Fatal("counting repair differs from RepairUniverse")
	}
	t1 := time.Now()
	pool.RebuildUniverse(size, sp, seedKey)
	rebuildNS := time.Since(t1).Nanoseconds()
	t.Logf("5%% staleness: repair %dns, rebuild %dns (%.1fx)", repairNS, rebuildNS, float64(rebuildNS)/float64(max(repairNS, 1)))
}

func BenchmarkDeltaRepair(b *testing.B) {
	g := repairBenchGraph()
	pool := NewPool(g, PoolOptions{Workers: 1})
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.05
	}
	sp := NewSampleProbs(g, probs)
	const size, seedKey = 8000, uint64(5)

	base := NewUniverse(g.NumNodes())
	st := pool.NewStream(sp, 7)
	st.SampleN(size, func(nodes []int32) { base.Add(nodes) })

	b.Run("repair-5pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u := NewUniverse(g.NumNodes())
			for id := int32(0); int(id) < size; id++ {
				u.Add(base.Set(id))
			}
			for id := int32(0); int(id) < size; id += 20 {
				u.stale.set(id)
				u.nStale++
			}
			b.StartTimer()
			pool.RepairUniverse(u, sp, seedKey)
		}
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool.RebuildUniverse(size, sp, seedKey)
		}
	})
	b.Run("dblp-wc", benchmarkServedRepair)
}

// benchmarkServedRepair times Repair at the shape a served mutation
// meets: the tiny dblp preset under weighted-cascade probabilities,
// about 260k RR sets, and stale marks from invalidating the targets of
// three random arcs — about 1.3% of the sets. Each op is one delta: it
// re-weights the in-arcs of those targets, alternating between the
// preset's weights and raised ones (perfbench's mutate-wal deltas set
// arc probabilities in [0.01, 0.3]), so the replacement sets differ
// from the ones they replace as in a served write. Besides ns/op it
// reports the stale sets per op and ns per stored member, the
// per-entry constant of the whole-universe recompaction and index
// rebuild.
func benchmarkServedRepair(b *testing.B) {
	ds, err := gen.ByName("dblp", gen.ScaleTiny, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	probs := topic.NewWeightedCascade(g).EdgeProbs(topic.Distribution{1})
	rng := xrand.New(3)
	touched := make([]int32, 3)
	raised := append([]float32(nil), probs...)
	for i := range touched {
		_, touched[i] = g.EdgeEndpoints(int64(rng.Uint64n(uint64(g.NumEdges()))))
		for _, e := range g.InEdgeIDs(touched[i]) {
			raised[e] = float32(0.01 + 0.29*rng.Float64())
		}
	}
	weights := [2]SampleProbs{NewSampleProbs(g, probs), NewSampleProbs(g, raised)}
	pool := NewPool(g, PoolOptions{Workers: 1})
	const sets, seedKey = 260000, uint64(5)
	u := pool.RebuildUniverse(sets, weights[0], seedKey)
	stale, members := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stale += u.Invalidate(touched)
		b.StartTimer()
		pool.RepairUniverse(u, weights[(i+1)%2], seedKey)
		members += len(u.data)
	}
	b.ReportMetric(float64(stale)/float64(b.N), "stale/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(members), "ns/member")
}

// sameIndex asserts that u's inverted index yields, for every node, the
// same set-ID sequence and degree as the oracle's.
func sameIndex(t *testing.T, u, oracle *Universe) {
	t.Helper()
	for v := int32(0); v < u.n; v++ {
		if u.idx.deg[v] != oracle.idx.deg[v] {
			t.Fatalf("node %d: deg %d, oracle %d", v, u.idx.deg[v], oracle.idx.deg[v])
		}
		it, want := u.idx.iter(v), oracle.idx.iter(v)
		for {
			got, ok := it.next()
			exp, wok := want.next()
			if ok != wok || got != exp {
				t.Fatalf("node %d: index yields (%d, %v), oracle (%d, %v)", v, got, ok, exp, wok)
			}
			if !ok {
				break
			}
		}
	}
}

// FuzzUniverseRepair checks Repair's run-wise recompaction and
// counting-sort index rebuild against RebuildUniverse, whose per-set
// Adds push every member. A universe a Stream (Workers 1 or 2) sampled
// on one set of arc probabilities is invalidated at random touched
// nodes whose in-arc probabilities then change; since a set not
// containing a touched node never read those arcs, RepairUniverse with
// the stream's seed on the new probabilities must reproduce a cold
// rebuild on them: set bytes, every node's index chain and degree. The
// stream then resumes on the new probabilities, pushing more sets onto
// the bulk-laid chains, and a second delta is repaired the same way.
//
// An odd mode starts every node on the kernel's skip path: its in-arcs
// share one p drawn per node, now and then exactly 1 (all live) or 0
// (per-arc path). Either way, a touched node's in-arcs get one shared p
// or mixed ones at random, so repairs run across nodes switching between
// the skip and the per-arc path.
func FuzzUniverseRepair(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(3), uint8(40), uint8(60), uint8(0))
	f.Add(uint64(7), uint16(1), uint8(1), uint8(0), uint8(255), uint8(0))
	f.Add(uint64(42), uint16(2000), uint8(20), uint8(200), uint8(20), uint8(0))
	f.Add(uint64(5), uint16(800), uint8(6), uint8(90), uint8(120), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, touch, extra, pct, mode uint8) {
		rng := xrand.New(seed)
		n := 2 + rng.Int31n(120)
		m := int(n) * (1 + rng.Intn(6))
		b := graph.NewBuilder(n, m)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Int31n(n), rng.Int31n(n))
		}
		g := b.Build()
		pool := NewPool(g, PoolOptions{Workers: 1 + int(seed%2), BatchSize: 1 + int(pct)%32})
		scale := 0.02 + 0.98*float64(pct)/255
		probs := make([]float32, g.NumEdges())
		// setInArcs gives v's in-arcs one shared p (uniform) or one p each.
		setInArcs := func(v int32, uniform bool) {
			shared := float32(scale * rng.Float64())
			switch rng.Intn(8) {
			case 0:
				shared = 1
			case 1:
				shared = 0
			}
			for _, e := range g.InEdgeIDs(v) {
				if !uniform {
					shared = float32(scale * rng.Float64())
				}
				probs[e] = shared
			}
		}
		for v := int32(0); v < n; v++ {
			setInArcs(v, mode%2 == 1)
		}
		const seedKey = uint64(0xfeed)
		total := 1 + int(size)%3000

		u := NewUniverse(n)
		u.AddFromParallel(pool.NewStream(NewSampleProbs(g, probs), seedKey), total)
		for round := 0; round < 2; round++ {
			touched := make([]int32, 1+int(touch)%8)
			for i := range touched {
				touched[i] = rng.Int31n(n)
				setInArcs(touched[i], rng.Intn(2) == 0)
			}
			sp := NewSampleProbs(g, probs)
			marked := u.Invalidate(touched)
			if got := pool.RepairUniverse(u, sp, seedKey); got != marked {
				t.Fatalf("round %d: repaired %d slots, %d were marked", round, got, marked)
			}
			ref := pool.RebuildUniverse(total, sp, seedKey)
			if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
				t.Fatalf("round %d: repair not bit-identical to rebuild", round)
			}
			checkIndexConsistent(t, u)
			sameIndex(t, u, ref)

			// Growth after a repair pushes onto the bulk-laid chains.
			u.AddFromParallel(pool.NewStreamAt(sp, seedKey, total), int(extra))
			total += int(extra)
			ref = pool.RebuildUniverse(total, sp, seedKey)
			checkIndexConsistent(t, u)
			sameIndex(t, u, ref)
		}
	})
}

// sameIndexBytes asserts that two indexes hold byte-identical arrays:
// degrees, the ID array, and every segment's set-ID range and starts.
func sameIndexBytes(t *testing.T, got, want *nodeIndex) {
	t.Helper()
	if !slices.Equal(got.deg, want.deg) || !slices.Equal(got.ids, want.ids) {
		t.Fatal("index deg or IDs differ from the one-chunk build")
	}
	if len(got.segs) != len(want.segs) {
		t.Fatalf("index has %d segments, the one-chunk build %d", len(got.segs), len(want.segs))
	}
	for i, g := range got.segs {
		w := want.segs[i]
		if g.lo != w.lo || g.hi != w.hi || !slices.Equal(g.start, w.start) {
			t.Fatalf("index segment %d differs from the one-chunk build", i)
		}
	}
}

// repairChunkCounts are the fan-outs the chunk-count tests force: one
// chunk (the sequential path), small splits, a prime, and more chunks
// than the smaller universes have sets.
var repairChunkCounts = []int{1, 2, 3, 7, 64}

// TestRepairChunkCountIdentity pins the parallel repair's contract: at
// every chunk count, resampling and the index rebuild give the same
// set bytes and the same index arrays, byte for byte, as one chunk,
// and the set bytes and chains of a cold RebuildUniverse. The shapes
// include universes with fewer sets than chunks (empty ranges) and a
// single-slot pool whose fan-out runs on repair-only scratch.
func TestRepairChunkCountIdentity(t *testing.T) {
	rng := xrand.New(17)
	g := newTestGraph(rng)
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.1
	}
	touched := []int32{0, 5, 42}
	moved := append([]float32(nil), probs...)
	for _, v := range touched {
		for _, e := range g.InEdgeIDs(v) {
			moved[e] = 0.3
		}
	}
	before, after := NewSampleProbs(g, probs), NewSampleProbs(g, moved)
	const seedKey = uint64(77)
	for _, tc := range []struct {
		size, workers int
		all           bool
	}{
		{1, 1, true}, {3, 2, true}, {5, 1, false}, {600, 1, false}, {600, 3, true}, {4000, 2, false},
	} {
		pool := NewPool(g, PoolOptions{Workers: tc.workers})
		base := pool.RebuildUniverse(tc.size, before, seedKey)
		ref := pool.RebuildUniverse(tc.size, after, seedKey)
		var one *Universe
		for _, chunks := range repairChunkCounts {
			u := NewUniverse(g.NumNodes())
			for id := int32(0); int(id) < tc.size; id++ {
				u.Add(base.Set(id))
			}
			marked := u.Invalidate(touched)
			if tc.all {
				marked += u.InvalidateAll()
			}
			if got := pool.repairUniverse(u, after, seedKey, chunks); got != marked {
				t.Fatalf("size %d, %d chunks: repaired %d slots, %d were marked", tc.size, chunks, got, marked)
			}
			if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
				t.Fatalf("size %d, %d chunks: repair differs from a cold rebuild", tc.size, chunks)
			}
			sameIndex(t, u, ref)
			checkIndexConsistent(t, u)
			if one == nil {
				one = u
				continue
			}
			sameIndexBytes(t, &u.idx, &one.idx)
		}
	}
}

// TestRepairConcurrentOnOnePool repairs several universes at once on
// one single-slot pool, so the fan-outs contend for its slot and its
// repair-only scratch; each must still equal a cold rebuild.
func TestRepairConcurrentOnOnePool(t *testing.T) {
	g := newTestGraph(xrand.New(23))
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.1
	}
	sp := NewSampleProbs(g, probs)
	pool := NewPool(g, PoolOptions{Workers: 1})
	const size = 800
	us := make([]*Universe, 4)
	for i := range us {
		us[i] = pool.RebuildUniverse(size, sp, uint64(i))
		us[i].InvalidateAll()
	}
	var wg sync.WaitGroup
	for i, u := range us {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.repairUniverse(u, sp, uint64(100+i), 3)
		}()
	}
	wg.Wait()
	for i, u := range us {
		ref := pool.RebuildUniverse(size, sp, uint64(100+i))
		if !bytes.Equal(universeBytes(t, u), universeBytes(t, ref)) {
			t.Fatalf("universe %d: concurrent repair differs from a cold rebuild", i)
		}
		sameIndex(t, u, ref)
	}
}

// TestRebuildChunkCountIdentity drives the index build alone over a
// hand-made arena with empty sets, a hub in every set and a run of sets
// of low-degree nodes, so member-balanced ranges come out empty or split
// one node's list several ways. The index is built as two segments, the
// second starting mid-arena.
func TestRebuildChunkCountIdentity(t *testing.T) {
	const n = 9
	var data []int32
	offsets := []uint32{0}
	for id := 0; id < 40; id++ {
		switch {
		case id%5 == 0: // empty set
		case id < 30:
			data = append(data, 0, int32(1+id%3))
		default:
			data = append(data, 0, int32(4+id%5))
		}
		offsets = append(offsets, uint32(len(data)))
	}
	const split = 17
	sets := int32(len(offsets) - 1)
	var one nodeIndex
	one.init(n)
	one.build(data, offsets, 0, split, 1)
	one.build(data, offsets, split, sets, 1)
	for _, chunks := range repairChunkCounts {
		var ix nodeIndex
		ix.init(n)
		ix.build(data, offsets, 0, split, chunks)
		ix.build(data, offsets, split, sets, chunks)
		sameIndexBytes(t, &ix, &one)
	}
	// Every set ID must come back from its members' ID lists, ascending.
	for v := int32(0); v < n; v++ {
		var got []int32
		it := one.iter(v)
		for id, ok := it.next(); ok; id, ok = it.next() {
			got = append(got, id)
		}
		var want []int32
		for id := 0; id+1 < len(offsets); id++ {
			if slices.Contains(data[offsets[id]:offsets[id+1]], v) {
				want = append(want, int32(id))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("node %d IDs %v, want %v", v, got, want)
		}
	}
}

// TestRepairWarmAllocations pins that a warm repair allocates no new
// arena: once two repairs have run, each further RepairUniverse at the
// same shape recompacts into the arena the one before it displaced,
// allocates a constant number of objects whatever the universe size,
// and allocates far fewer bytes than the arena holds. The spare arena
// counts in the universe's footprint and the repair-only scratch in
// the pool's.
func TestRepairWarmAllocations(t *testing.T) {
	g := repairBenchGraph()
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.05
	}
	touched := []int32{3, 700}
	raised := append([]float32(nil), probs...)
	for _, v := range touched {
		for _, e := range g.InEdgeIDs(v) {
			raised[e] = 0.2
		}
	}
	weights := [2]SampleProbs{NewSampleProbs(g, probs), NewSampleProbs(g, raised)}
	const seedKey, chunks = uint64(9), 3
	pool := NewPool(g, PoolOptions{Workers: 1})
	allocs := make(map[int]float64)
	for _, size := range []int{10000, 40000} {
		u := pool.RebuildUniverse(size, weights[0], seedKey)
		round := 0
		repair := func() {
			round++
			u.Invalidate(touched)
			pool.repairUniverse(u, weights[round%2], seedKey, chunks)
		}
		cold := u.MemoryFootprint()
		repair()
		if got, spare := u.MemoryFootprint(), int64(len(u.spareData)+len(u.spareOffsets))*4; got < cold+spare {
			t.Fatalf("size %d: footprint %d after the first repair, want at least %d + the %d B spare", size, got, cold, spare)
		}
		if got, want := pool.MemoryFootprint(), int64(chunks)*8*int64(g.NumNodes()); got != want {
			t.Fatalf("size %d: pool footprint %d B after a %d-chunk repair on one slot, want %d", size, got, chunks, want)
		}
		for i := 0; i < 3; i++ {
			repair()
		}
		arenas := [2]*int32{&u.data[0], &u.spareData[0]}
		footprint := u.MemoryFootprint()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		allocs[size] = testing.AllocsPerRun(8, repair)
		runtime.ReadMemStats(&ms1)
		if &u.data[0] != arenas[round%2] || &u.spareData[0] != arenas[1-round%2] {
			t.Fatalf("size %d: a warm repair moved the universe to a new arena", size)
		}
		if got := u.MemoryFootprint(); got != footprint {
			t.Fatalf("size %d: warm repairs changed MemoryFootprint %d -> %d", size, footprint, got)
		}
		perRepair := (ms1.TotalAlloc - ms0.TotalAlloc) / 9 // AllocsPerRun's warm-up run included
		if arena := uint64(len(u.data)) * 4; perRepair > arena/4 {
			t.Fatalf("size %d: a warm repair allocates %d B, arena holds %d B", size, perRepair, arena)
		}
	}
	t.Logf("allocations per warm repair: %v", allocs)
	if allocs[40000] > allocs[10000] || allocs[10000] > 8*chunks+16 {
		t.Fatalf("allocations per warm repair %v: want a small constant", allocs)
	}
}
