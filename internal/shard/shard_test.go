package shard

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// newTestGraph builds a random 200-node digraph with a dominant hub so
// greedy choices are well separated (the same shape rrset's own
// equivalence tests use).
func newTestGraph(rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(200, 1200)
	for v := int32(1); v <= 60; v++ {
		b.AddEdge(0, v)
	}
	for i := 0; i < 1100; i++ {
		b.AddEdge(rng.Int31n(200), rng.Int31n(200))
	}
	return b.Build()
}

func constProbs(g *graph.Graph, p float32) rrset.SampleProbs {
	probs := make([]float32, g.NumEdges())
	for i := range probs {
		probs[i] = p
	}
	return rrset.NewSampleProbs(g, probs)
}

func newPools(g *graph.Graph, s, workers int) []*rrset.Pool {
	pools := make([]*rrset.Pool, s)
	for i := range pools {
		pools[i] = rrset.NewPool(g, rrset.PoolOptions{Workers: workers})
	}
	return pools
}

func TestStreamSeed(t *testing.T) {
	if StreamSeed(42, 0) != 42 {
		t.Fatal("shard 0 must keep the base seed (S=1 bit-identity)")
	}
	seen := map[uint64]bool{}
	for s := 0; s < 16; s++ {
		k := StreamSeed(42, s)
		if seen[k] {
			t.Fatalf("StreamSeed collision at shard %d", s)
		}
		seen[k] = true
	}
}

func TestCountFor(t *testing.T) {
	for total := 0; total <= 40; total++ {
		for s := 1; s <= 7; s++ {
			sum := 0
			for i := 0; i < s; i++ {
				sum += CountFor(total, i, s)
			}
			if sum != total {
				t.Fatalf("CountFor(%d, ·, %d) sums to %d", total, s, sum)
			}
			// Shard of draw i is i mod s: recount directly.
			for i := 0; i < s; i++ {
				direct := 0
				for d := 0; d < total; d++ {
					if d%s == i {
						direct++
					}
				}
				if got := CountFor(total, i, s); got != direct {
					t.Fatalf("CountFor(%d, %d, %d) = %d, want %d", total, i, s, got, direct)
				}
			}
		}
	}
}

// TestOneShardBitIdentical asserts the S=1 contract: a 1-shard group's
// universe holds exactly the sets an unsharded stream with the same
// seed would have drawn, set for set.
func TestOneShardBitIdentical(t *testing.T) {
	g := newTestGraph(xrand.New(7))
	probs := constProbs(g, 0.1)
	const seed, total = 99, 400

	grp := NewGroup(g.NumNodes(), newPools(g, 1, 1), probs, seed)
	if err := grp.Grow(context.Background(), total); err != nil {
		t.Fatal(err)
	}

	ref := rrset.NewUniverse(g.NumNodes())
	refPool := rrset.NewPool(g, rrset.PoolOptions{Workers: 1})
	ref.AddFromParallel(refPool.NewStream(probs, seed), total)

	if grp.Size() != ref.Size() {
		t.Fatalf("sizes differ: %d vs %d", grp.Size(), ref.Size())
	}
	u := grp.Universe(0)
	for id := int32(0); int(id) < ref.Size(); id++ {
		a, b := u.Set(id), ref.Set(id)
		if len(a) != len(b) {
			t.Fatalf("set %d length differs", id)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d differs at member %d: %d vs %d", id, j, a[j], b[j])
			}
		}
	}
}

// oracleOf interleaves a group's shard contents back into global draw
// order and returns the equivalent single universe.
func oracleOf(g *Group) *rrset.Universe {
	return extendOracle(rrset.NewUniverse(g.NumNodes()), g)
}

// extendOracle appends the group's global draws beyond u's size to u,
// in global draw order, and returns u.
func extendOracle(u *rrset.Universe, g *Group) *rrset.Universe {
	s := g.NumShards()
	for i := u.Size(); i < g.Size(); i++ {
		su := g.Universe(i % s)
		u.Add(append([]int32(nil), su.Set(int32(i/s))...))
	}
	return u
}

// TestMergedMatchesOracleSampled grows a 3-shard group on a real graph
// and checks that the merged view's whole greedy trajectory — counts,
// picks, tombstones — matches the single-universe oracle's, including
// across an incremental growth and resync.
func TestMergedMatchesOracleSampled(t *testing.T) {
	g := newTestGraph(xrand.New(3))
	probs := constProbs(g, 0.15)
	grp := NewGroup(g.NumNodes(), newPools(g, 3, 2), probs, 1234)
	if err := grp.Grow(context.Background(), 300); err != nil {
		t.Fatal(err)
	}

	mv := NewView(grp)
	ov := rrset.NewView(oracleOf(grp))
	checkGreedy(t, mv, ov, g.NumNodes(), 5)

	// Grow and resync mid-trajectory: the views must stay in lockstep.
	if err := grp.Grow(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	ov2 := rrset.NewView(oracleOf(grp))
	// Replay the oracle's tombstones so both sides agree again.
	mvFresh := NewView(grp)
	checkGreedy(t, mvFresh, ov2, g.NumNodes(), 8)
}

// checkGreedy runs rounds of (MaxCovCount, CoverBy) on both states,
// failing on the first divergence.
func checkGreedy(t *testing.T, a, b rrset.CoverageState, n int32, rounds int) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("Size: %d vs %d", a.Size(), b.Size())
	}
	for v := int32(0); v < n; v++ {
		if a.CovCount(v) != b.CovCount(v) {
			t.Fatalf("CovCount(%d): %d vs %d", v, a.CovCount(v), b.CovCount(v))
		}
	}
	for r := 0; r < rounds; r++ {
		an, ac := a.MaxCovCount(nil)
		bn, bc := b.MaxCovCount(nil)
		if an != bn || ac != bc {
			t.Fatalf("round %d MaxCovCount: (%d,%d) vs (%d,%d)", r, an, ac, bn, bc)
		}
		if ac == 0 {
			return
		}
		ca, cb := a.CoverBy(an), b.CoverBy(bn)
		if ca != cb {
			t.Fatalf("round %d CoverBy(%d): %d vs %d", r, an, ca, cb)
		}
		if a.NumCovered() != b.NumCovered() {
			t.Fatalf("round %d NumCovered: %d vs %d", r, a.NumCovered(), b.NumCovered())
		}
	}
}

// TestMergedPrefix asserts the cache-replay contract: a prefix view
// over a pre-grown group equals the oracle's prefix view — whether its
// shards are seeded from their index degrees (long prefixes) or walked
// forward (short ones) — and stays equal, eligibility-filtered maxima
// included, when the group grows and the covered views sync further.
func TestMergedPrefix(t *testing.T) {
	g := newTestGraph(xrand.New(11))
	probs := constProbs(g, 0.1)
	grp := NewGroup(g.NumNodes(), newPools(g, 4, 1), probs, 77)
	if err := grp.Grow(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	oracle := oracleOf(grp)
	prefixes := []int{0, 1, 7, 100, 199, 201, 300, 399, 400, 1000}
	mvs := make([]*MergedView, len(prefixes))
	ovs := make([]*rrset.View, len(prefixes))
	for i, prefix := range prefixes {
		mvs[i] = NewViewPrefix(grp, prefix)
		ovs[i] = rrset.NewViewPrefix(oracle, prefix)
		checkGreedy(t, mvs[i], ovs[i], g.NumNodes(), 4)
	}

	if err := grp.Grow(context.Background(), 700); err != nil {
		t.Fatal(err)
	}
	extendOracle(oracle, grp)
	rng := xrand.New(12)
	for i := range prefixes {
		limit := mvs[i].Size() + 150
		if a, b := mvs[i].SyncTo(limit), ovs[i].SyncTo(limit); a != b {
			t.Fatalf("prefix %d SyncTo(%d): %d vs %d", prefixes[i], limit, a, b)
		}
		checkEligible(t, mvs[i], ovs[i], g.NumNodes(), rng)
		checkGreedy(t, mvs[i], ovs[i], g.NumNodes(), 4)
	}
}

// checkEligible compares eligibility-filtered MaxCovCount answers of two
// states: a random banned third of the nodes, every node banned, and
// every node but the highest ID banned.
func checkEligible(t *testing.T, a, b rrset.CoverageState, n int32, rng *xrand.RNG) {
	t.Helper()
	banned := make([]bool, n)
	for v := range banned {
		banned[v] = rng.Int31n(3) == 0
	}
	for _, eligible := range []func(int32) bool{
		func(v int32) bool { return !banned[v] },
		func(int32) bool { return false },
		func(v int32) bool { return v == n-1 },
	} {
		an, ac := a.MaxCovCount(eligible)
		bn, bc := b.MaxCovCount(eligible)
		if an != bn || ac != bc {
			t.Fatalf("filtered MaxCovCount: (%d,%d) vs (%d,%d)", an, ac, bn, bc)
		}
	}
}

// TestMergedViewZeroAlloc pins the view's per-pick operations
// allocation-free: CovCount per heap key, CoverBy per assignment and
// the eligibility-filtered MaxCovCount per growth event.
func TestMergedViewZeroAlloc(t *testing.T) {
	g := newTestGraph(xrand.New(13))
	grp := NewGroup(g.NumNodes(), newPools(g, 3, 1), constProbs(g, 0.1), 21)
	if err := grp.Grow(context.Background(), 600); err != nil {
		t.Fatal(err)
	}
	mv := NewView(grp)
	n := g.NumNodes()
	assigned := make([]bool, n)
	eligible := func(v int32) bool { return !assigned[v] }
	var node, sink int32
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"CovCount", func() { sink += mv.CovCount(node); node = (node + 1) % n }},
		{"CoverBy", func() { mv.CoverBy(node); assigned[node] = true; node = (node + 1) % n }},
		{"MaxCovCount", func() { v, _ := mv.MaxCovCount(eligible); sink += v }},
	} {
		if allocs := testing.AllocsPerRun(100, op.f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", op.name, allocs)
		}
	}
	_ = sink
}

func TestGroupInvalidateMatchesOracle(t *testing.T) {
	g := newTestGraph(xrand.New(5))
	probs := constProbs(g, 0.1)
	grp := NewGroup(g.NumNodes(), newPools(g, 3, 1), probs, 5)
	if err := grp.Grow(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	oracle := oracleOf(grp)
	touched := []int32{0, 5, 199, 500 /* out of range: ignored */}
	if got, want := grp.Invalidate(touched), oracle.Invalidate(touched); got != want {
		t.Fatalf("Invalidate: %d vs oracle %d", got, want)
	}
	if got, want := grp.StaleCount(), oracle.StaleCount(); got != want {
		t.Fatalf("StaleCount: %d vs oracle %d", got, want)
	}
}
