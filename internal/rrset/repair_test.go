package rrset

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/graph"
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
	if got, want := u.StaleFraction(), 4.0/5.0; got != want {
		t.Fatalf("StaleFraction = %v, want %v", got, want)
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
	if u.StaleCount() != 0 || u.StaleFraction() != 0 {
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
	st.SampleN(size, func(nodes []int32, _ int64) { u.Add(nodes) })

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

// TestPartialRepairSlotIdentity pins the per-slot determinism contract:
// after a partial repair, untouched slots keep their exact bytes and
// every repaired slot equals the same slot of a cold rebuild at equal
// seedKey — repair outcome independent of which other slots were stale.
func TestPartialRepairSlotIdentity(t *testing.T) {
	rng := xrand.New(13)
	g := newTestGraph(rng)
	pool := NewPool(g, PoolOptions{Workers: 1})
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = 0.08
	}
	const size, seedKey = 400, uint64(99)

	u := NewUniverse(g.NumNodes())
	st := pool.NewStream(NewSampleProbs(g, probs), 3)
	st.SampleN(size, func(nodes []int32, _ int64) { u.Add(nodes) })
	before := make([][]int32, size)
	for id := int32(0); int(id) < size; id++ {
		before[id] = append([]int32(nil), u.Set(id)...)
	}

	touched := []int32{0, 17, 63} // a few nodes; the hub 0 makes it non-trivial
	staleBefore := make([]bool, size)
	for id := int32(0); int(id) < size; id++ {
		for _, v := range u.Set(id) {
			for _, tv := range touched {
				if v == tv {
					staleBefore[id] = true
				}
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

	if got := pool.RepairUniverse(u, NewSampleProbs(g, probs), seedKey); got != marked {
		t.Fatalf("RepairUniverse = %d, want %d", got, marked)
	}
	ref := pool.RebuildUniverse(size, NewSampleProbs(g, probs), seedKey)
	for id := int32(0); int(id) < size; id++ {
		got := u.Set(id)
		var want []int32
		if staleBefore[id] {
			want = ref.Set(id)
		} else {
			want = before[id]
		}
		if len(got) != len(want) {
			t.Fatalf("slot %d (stale=%v): %v, want %v", id, staleBefore[id], got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slot %d (stale=%v): %v, want %v", id, staleBefore[id], got, want)
			}
		}
	}
	checkIndexConsistent(t, u)

	// Repairing with nothing stale is a no-op.
	if got := pool.RepairUniverse(u, NewSampleProbs(g, probs), seedKey); got != 0 {
		t.Fatalf("second RepairUniverse = %d, want 0", got)
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

// TestRepairSpeedup guards the acceptance bound: with ~5% of slots
// stale, repair must beat a cold rebuild by at least 3x. Wall-clock
// ratio tests are noisy, so the bound here is the conservative half of
// the benchmarked one (BenchmarkDeltaRepair measures the real ratio).
func TestRepairSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
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
		st.SampleN(size, func(nodes []int32, _ int64) { u.Add(nodes) })
		return u
	}
	// ~5% staleness: mark 5% of slots directly (node-driven invalidation
	// fractions depend on the graph; the cost model only cares how many
	// slots get resampled).
	mark := func(u *Universe) {
		for id := int32(0); int(id) < size; id += 20 {
			if !u.stale.get(id) {
				u.stale.set(id)
				u.nStale++
			}
		}
	}

	reps := 5
	var repairNS, rebuildNS int64
	for r := 0; r < reps; r++ {
		u := build()
		mark(u)
		t0 := time.Now()
		pool.RepairUniverse(u, sp, seedKey)
		repairNS += time.Since(t0).Nanoseconds()

		t1 := time.Now()
		ref := pool.RebuildUniverse(size, sp, seedKey)
		rebuildNS += time.Since(t1).Nanoseconds()
		if ref.Size() != size {
			t.Fatal("rebuild size mismatch")
		}
	}
	if repairNS*3 > rebuildNS {
		t.Errorf("repair %dns not ≥3x faster than rebuild %dns at 5%% staleness", repairNS/int64(reps), rebuildNS/int64(reps))
	}
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
	st.SampleN(size, func(nodes []int32, _ int64) { base.Add(nodes) })

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
}
