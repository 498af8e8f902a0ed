package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// pickMissingEdge finds an (u, v) arc absent from g, u != v.
func pickMissingEdge(t *testing.T, g *graph.Graph) (int32, int32) {
	t.Helper()
	for u := int32(0); u < g.NumNodes(); u++ {
		for v := int32(0); v < g.NumNodes(); v++ {
			if u != v && !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete; no missing edge")
	return 0, 0
}

// pickExistingEdge returns the first arc of g.
func pickExistingEdge(t *testing.T, g *graph.Graph) (int32, int32) {
	t.Helper()
	for u := int32(0); u < g.NumNodes(); u++ {
		if nbrs := g.OutNeighbors(u); len(nbrs) > 0 {
			return u, nbrs[0]
		}
	}
	t.Fatal("graph has no edges")
	return 0, 0
}

// rebind builds the same problem against the engine's current
// generation (ads/incentives are graph-independent here).
func rebindProblem(e *Engine, p *Problem) *Problem {
	g, m := e.Current()
	return &Problem{Graph: g, Model: m, Ads: p.Ads, Incentives: p.Incentives}
}

// A generation swap must leave old-generation problems solvable for
// exactly one swap, tag Stats with the pinned generation, and reject
// anything two swaps old with ErrInvalidProblem.
func TestApplyDeltaGenerationWindow(t *testing.T) {
	p0 := smallWCProblem(3, 51)
	eng := engineFor(p0, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 9, MaxThetaPerAd: 20000}

	_, stats, err := eng.Solve(context.Background(), p0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 0 {
		t.Fatalf("gen-0 solve reported generation %d", stats.Generation)
	}

	au, av := pickMissingEdge(t, p0.Graph)
	res, err := eng.ApplyDelta(context.Background(), &graph.Delta{AddEdges: []graph.Edge{{U: au, V: av}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || eng.Generation() != 1 {
		t.Fatalf("generation after swap: result %d, engine %d, want 1", res.Generation, eng.Generation())
	}
	if res.TouchedNodes != 1 {
		t.Fatalf("TouchedNodes = %d, want 1", res.TouchedNodes)
	}
	g1, m1 := eng.Current()
	if g1 == p0.Graph || m1 == p0.Model {
		t.Fatal("Current() still returns the pre-swap graph/model")
	}
	if !g1.HasEdge(au, av) {
		t.Fatal("added edge missing from the new generation")
	}

	// One swap old: still solvable, pinned at its own generation.
	_, stats, err = eng.Solve(context.Background(), p0, opt)
	if err != nil {
		t.Fatalf("prev-generation solve: %v", err)
	}
	if stats.Generation != 0 {
		t.Fatalf("prev-generation solve reported generation %d", stats.Generation)
	}
	p1 := rebindProblem(eng, p0)
	_, stats, err = eng.Solve(context.Background(), p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 1 {
		t.Fatalf("gen-1 solve reported generation %d", stats.Generation)
	}

	// Second swap: gen 0 falls out of the window.
	ru, rv := au, av
	if _, err := eng.ApplyDelta(context.Background(), &graph.Delta{RemoveEdges: []graph.Edge{{U: ru, V: rv}}}); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", eng.Generation())
	}
	if _, _, err := eng.Solve(context.Background(), p0, opt); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("two-swaps-old solve: err = %v, want ErrInvalidProblem", err)
	}
	if _, _, err := eng.Solve(context.Background(), p1, opt); err != nil {
		t.Fatalf("one-swap-old solve: %v", err)
	}
	if _, err := eng.snapshotFor(p0); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("snapshotFor(gen 0) = %v, want ErrInvalidProblem", err)
	}
}

// An invalid delta must reject with graph.ErrBadDelta and leave the
// engine byte-for-byte on its current generation.
func TestApplyDeltaBadDeltaLeavesEngineUntouched(t *testing.T) {
	p := smallWCProblem(2, 52)
	eng := engineFor(p, 1)
	g0, m0 := eng.Current()

	eu, ev := pickExistingEdge(t, p.Graph)
	bad := []*graph.Delta{
		{AddEdges: []graph.Edge{{U: eu, V: ev}}},                   // already exists
		{AddEdges: []graph.Edge{{U: 3, V: 3}}},                     // self-loop
		{RemoveEdges: []graph.Edge{{U: 0, V: p.Graph.NumNodes()}}}, // out of range
		{SetProbs: []graph.ProbUpdate{{U: eu, V: ev, Topic: 0, P: 1.5}}},
		{SetProbs: []graph.ProbUpdate{{U: eu, V: ev, Topic: 99, P: 0.5}}},
	}
	for i, d := range bad {
		res, err := eng.ApplyDelta(context.Background(), d)
		if !errors.Is(err, graph.ErrBadDelta) {
			t.Fatalf("bad delta %d: err = %v, want ErrBadDelta", i, err)
		}
		if res != nil {
			t.Fatalf("bad delta %d returned a result", i)
		}
	}
	if g, m := eng.Current(); g != g0 || m != m0 || eng.Generation() != 0 {
		t.Fatal("rejected delta mutated the engine")
	}
	if c := eng.Counters(); c.Mutations != 0 {
		t.Fatalf("Mutations = %d after rejected deltas, want 0", c.Mutations)
	}
}

// Swaps never queue: a second ApplyDelta while one is in flight fails
// fast with ErrSwapInProgress.
func TestApplyDeltaSwapInProgress(t *testing.T) {
	p := smallWCProblem(2, 53)
	eng := engineFor(p, 1)

	eng.swapMu.Lock()
	_, err := eng.ApplyDelta(context.Background(), &graph.Delta{})
	eng.swapMu.Unlock()
	if !errors.Is(err, ErrSwapInProgress) {
		t.Fatalf("err = %v, want ErrSwapInProgress", err)
	}
	if eng.Generation() != 0 {
		t.Fatalf("generation = %d after rejected swap", eng.Generation())
	}
	if _, err := eng.ApplyDelta(context.Background(), &graph.Delta{}); err != nil {
		t.Fatalf("swap after release: %v", err)
	}
	if eng.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", eng.Generation())
	}
}

// Unlocked cached universes must be carried across the swap:
// invalidated against the touched nodes, repaired, and live in the new
// generation's cache.
func TestApplyDeltaCarriesUniverses(t *testing.T) {
	p := smallWCProblem(3, 54)
	eng := engineFor(p, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 13,
		MaxThetaPerAd: 20000, ShareSamples: true}

	if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	cached := eng.CachedUniverses()
	if cached == 0 {
		t.Fatal("ShareSamples solve left no cached universes")
	}

	eu, ev := pickExistingEdge(t, p.Graph)
	res, err := eng.ApplyDelta(context.Background(),
		&graph.Delta{SetProbs: []graph.ProbUpdate{{U: eu, V: ev, Topic: 0, P: 0.9}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CarriedUniverses != cached || res.DroppedUniverses != 0 {
		t.Fatalf("carried %d / dropped %d, want %d / 0",
			res.CarriedUniverses, res.DroppedUniverses, cached)
	}
	if eng.CachedUniverses() != cached {
		t.Fatalf("new generation caches %d universes, want %d", eng.CachedUniverses(), cached)
	}
	if res.InvalidatedSets == 0 {
		t.Fatal("touching an existing arc's target invalidated no RR sets")
	}
	// Every stale set is repaired at the swap.
	if res.RepairedSets != res.InvalidatedSets {
		t.Fatalf("repaired %d of %d invalidated sets", res.RepairedSets, res.InvalidatedSets)
	}
	c := eng.Counters()
	if c.Mutations != 1 ||
		c.RRSetsInvalidated != int64(res.InvalidatedSets) ||
		c.RRSetsRepaired != int64(res.RepairedSets) ||
		c.RepairDuration != res.RepairDuration || c.RepairDuration <= 0 {
		t.Fatalf("counters %+v disagree with DeltaResult %+v", c, res)
	}

	// The carried universes must serve the new generation: a re-solve at
	// the same seed hits the cache rather than rebuilding it.
	missesBefore := eng.Counters().UniverseCacheMisses
	p1 := rebindProblem(eng, p)
	if _, _, err := eng.Solve(context.Background(), p1, opt); err != nil {
		t.Fatalf("post-swap solve: %v", err)
	}
	if got := eng.Counters().UniverseCacheMisses; got != missesBefore {
		t.Fatalf("post-swap solve missed the carried cache (%d new misses)", got-missesBefore)
	}
}

// A mutation landing while a solve is in flight must not perturb it:
// the session completes on its pinned generation and reproduces the
// pre-swap allocation bit for bit. Run under -race this is the
// mutate-during-solve acceptance criterion.
func TestApplyDeltaDuringInflightSolve(t *testing.T) {
	for _, share := range []bool{false, true} {
		p := smallWCProblem(3, 56)
		eng := engineFor(p, 2)

		// Reference allocation on the untouched graph.
		refOpt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 31,
			MaxThetaPerAd: 20000, ShareSamples: share}
		want, _, err := solveFresh(p, refOpt)
		if err != nil {
			t.Fatal(err)
		}

		paused := make(chan struct{})  // solver reached its first progress event
		release := make(chan struct{}) // mutation landed; solver may continue
		var once atomic.Bool
		opt := refOpt
		opt.Progress = func(ProgressEvent) {
			if once.CompareAndSwap(false, true) {
				close(paused)
				<-release
			}
		}

		type result struct {
			alloc *Allocation
			stats *Stats
			err   error
		}
		done := make(chan result, 1)
		go func() {
			a, s, err := eng.Solve(context.Background(), p, opt)
			done <- result{a, s, err}
		}()

		<-paused
		au, av := pickMissingEdge(t, p.Graph)
		res, err := eng.ApplyDelta(context.Background(),
			&graph.Delta{AddEdges: []graph.Edge{{U: au, V: av}}})
		if err != nil {
			t.Fatalf("share=%v: mutate during solve: %v", share, err)
		}
		if eng.Generation() != 1 {
			t.Fatalf("share=%v: generation = %d, want 1", share, eng.Generation())
		}
		if share && res.DroppedUniverses == 0 {
			t.Errorf("share=%v: in-flight session's locked universe was not dropped", share)
		}
		close(release)

		r := <-done
		if r.err != nil {
			t.Fatalf("share=%v: in-flight solve failed after mutate: %v", share, r.err)
		}
		if r.stats.Generation != 0 {
			t.Fatalf("share=%v: in-flight solve reported generation %d, want 0", share, r.stats.Generation)
		}
		allocationsEqual(t, want, r.alloc)

		// New-generation solves see the new graph immediately.
		p1 := rebindProblem(eng, p)
		_, stats, err := eng.Solve(context.Background(), p1, refOpt)
		if err != nil {
			t.Fatalf("share=%v: post-mutate solve: %v", share, err)
		}
		if stats.Generation != 1 {
			t.Fatalf("share=%v: post-mutate solve generation %d, want 1", share, stats.Generation)
		}
	}
}

// Two engines fed the same delta sequence must agree: the compiled
// generations and the allocations solved on them are deterministic
// functions of (initial graph, deltas, seed).
func TestApplyDeltaDeterministic(t *testing.T) {
	mkDelta := func(g *graph.Graph) []*graph.Delta {
		eu, ev := pickExistingEdge(t, g)
		au, av := pickMissingEdge(t, g)
		return []*graph.Delta{
			{AddEdges: []graph.Edge{{U: au, V: av}},
				SetProbs: []graph.ProbUpdate{{U: eu, V: ev, Topic: 0, P: 0.42}}},
			{RemoveEdges: []graph.Edge{{U: au, V: av}}},
		}
	}
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 77,
		MaxThetaPerAd: 20000, ShareSamples: true}

	var allocs []*Allocation
	for run := 0; run < 2; run++ {
		p := smallWCProblem(3, 57)
		eng := engineFor(p, 1)
		for _, d := range mkDelta(p.Graph) {
			if _, err := eng.ApplyDelta(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
		a, stats, err := eng.Solve(context.Background(), rebindProblem(eng, p), opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Generation != 2 {
			t.Fatalf("generation = %d, want 2", stats.Generation)
		}
		allocs = append(allocs, a)
	}
	allocationsEqual(t, allocs[0], allocs[1])
}

// cachedSets returns the member lists of every universe in the current
// generation's cache, under its cache key.
func cachedSets(e *Engine) map[universeKey][][]int32 {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	out := map[universeKey][][]int32{}
	for k, sg := range sn.universes {
		sets := make([][]int32, sg.u.Size())
		for id := range sets {
			sets[id] = append([]int32(nil), sg.u.Set(int32(id))...)
		}
		out[k] = sets
	}
	return out
}

// After an ApplyDelta that adds and removes an arc, with repair on any
// staleness, a carried universe is exactly what a cold Engine samples on
// the new generation: a ShareSamples solve on the carried Workers=4
// Engine equals the same solve on a fresh Workers=1 Engine over
// Current() — allocation, θ, and every cached set.
func TestApplyDeltaCarriedEqualsCold(t *testing.T) {
	p := smallWCProblem(4, 57)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 4})
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 23,
		MaxThetaPerAd: 100000, ShareSamples: true}
	if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	au, av := pickMissingEdge(t, p.Graph)
	eu, ev := pickExistingEdge(t, p.Graph)
	res, err := eng.ApplyDelta(context.Background(), &graph.Delta{
		AddEdges: []graph.Edge{{U: au, V: av}}, RemoveEdges: []graph.Edge{{U: eu, V: ev}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CarriedUniverses == 0 || res.RepairedSets == 0 {
		t.Fatalf("delta carried %d universes and repaired %d sets; the test needs both", res.CarriedUniverses, res.RepairedSets)
	}
	p1 := rebindProblem(eng, p)
	got, gotStats, err := eng.Solve(context.Background(), p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, m := eng.Current()
	cold := NewEngine(g, m, EngineOptions{Workers: 1})
	want, wantStats, err := cold.Solve(context.Background(), p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, want, got)
	if fmt.Sprint(gotStats.Theta) != fmt.Sprint(wantStats.Theta) {
		t.Fatalf("θ %v on the carried Engine, %v on a cold one", gotStats.Theta, wantStats.Theta)
	}
	carried := cachedSets(eng)
	for k, sets := range cachedSets(cold) {
		c := carried[k]
		if len(c) < len(sets) {
			t.Fatalf("carried universe holds %d sets, cold %d", len(c), len(sets))
		}
		for id, set := range sets {
			if !slices.Equal(c[id], set) {
				t.Fatalf("set %d: carried %v, cold %v", id, c[id], set)
			}
		}
	}
}
