package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// cachedGroups returns the current generation's cache entries by key.
func cachedGroups(e *Engine) map[universeKey]*sharedGroup {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	out := map[universeKey]*sharedGroup{}
	for k, sg := range sn.universes {
		out[k] = sg
	}
	return out
}

// kptSetCount sums the KPT sets the current generation's entries hold.
func kptSetCount(e *Engine) int {
	total := 0
	for _, sg := range cachedGroups(e) {
		total += sg.kptU.Size()
	}
	return total
}

// requireKptStreamPrefix asserts that every cached entry's KPT universe
// holds exactly the first Size() sets a cold stream of its KPT seed
// draws on the current generation.
func requireKptStreamPrefix(t *testing.T, label string, e *Engine) {
	t.Helper()
	sn := e.cur.Load()
	for k, sg := range cachedGroups(e) {
		if n := sg.kptU.StaleCount(); n > 0 {
			t.Fatalf("%s: KPT universe holds %d stale sets", label, n)
		}
		ref := sn.pool.RebuildUniverse(sg.kptU.Size(), sn.edgeProbsFor(sg.gamma).sampling, k.kptSeed)
		for id := int32(0); int(id) < ref.Size(); id++ {
			if !slices.Equal(sg.kptU.Set(id), ref.Set(id)) {
				t.Fatalf("%s: KPT set %d is %v, the stream draws %v", label, id, sg.kptU.Set(id), ref.Set(id))
			}
		}
	}
}

// requireSameSolve asserts two solves agree in allocation, θ and the
// bits of every KPT estimate.
func requireSameSolve(t *testing.T, label string, want *Allocation, wantStats *Stats, got *Allocation, gotStats *Stats) {
	t.Helper()
	allocationsEqual(t, want, got)
	if fmt.Sprint(gotStats.Theta) != fmt.Sprint(wantStats.Theta) {
		t.Fatalf("%s: θ %v, cold %v", label, gotStats.Theta, wantStats.Theta)
	}
	for i := range wantStats.Kpt {
		if math.Float64bits(gotStats.Kpt[i]) != math.Float64bits(wantStats.Kpt[i]) {
			t.Fatalf("%s: ad %d KPT %v, cold %v", label, i, gotStats.Kpt[i], wantStats.Kpt[i])
		}
	}
}

// randomDelta draws a delta that adds two absent arcs, removes one
// present arc and re-weights another, so the arc count and several
// in-degrees change and a probability moves.
func randomDelta(g *graph.Graph, rng *xrand.RNG) *graph.Delta {
	arc := func() (int32, int32) { return g.EdgeEndpoints(int64(rng.Uint64() % uint64(g.NumEdges()))) }
	d := &graph.Delta{}
	for len(d.AddEdges) < 2 {
		e := graph.Edge{U: rng.Int31n(g.NumNodes()), V: rng.Int31n(g.NumNodes())}
		if e.U != e.V && !g.HasEdge(e.U, e.V) && !slices.Contains(d.AddEdges, e) {
			d.AddEdges = append(d.AddEdges, e)
		}
	}
	ru, rv := arc()
	d.RemoveEdges = []graph.Edge{{U: ru, V: rv}}
	for d.SetProbs == nil {
		if u, v := arc(); u != ru || v != rv {
			d.SetProbs = []graph.ProbUpdate{{U: u, V: v, P: float32(0.05 + 0.5*rng.Float64())}}
		}
	}
	return d
}

// A ShareSamples Engine carries its KPT sets through rounds of deltas
// that change m, in-degrees and probabilities, and repairs them on the
// first read. After every round the first solve (which repairs) and a
// second (which replays the repaired sets and draws none) both equal a
// cold Engine's solve on the same graph in allocation, θ and the bits
// of every KPT estimate.
func TestCarriedKptEqualsCold(t *testing.T) {
	p := smallWCProblem(4, 58)
	eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 2})
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 29,
		MaxThetaPerAd: 100000, ShareSamples: true}
	solve := func(e *Engine) (*Allocation, *Stats) {
		t.Helper()
		g, m := e.Current()
		a, st, err := e.Solve(context.Background(), &Problem{Graph: g, Model: m, Ads: p.Ads, Incentives: p.Incentives}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return a, st
	}
	solve(eng)
	rng := xrand.New(3)
	for round := 0; round < 3; round++ {
		m0 := eng.cur.Load().graph.NumEdges()
		for k := 0; k < 3; k++ {
			g, _ := eng.Current()
			res, err := eng.ApplyDelta(context.Background(), randomDelta(g, rng))
			if err != nil {
				t.Fatal(err)
			}
			if res.RepairedSets != res.InvalidatedSets {
				t.Fatalf("round %d: repaired %d of %d invalidated RR sets", round, res.RepairedSets, res.InvalidatedSets)
			}
		}
		if m := eng.cur.Load().graph.NumEdges(); m == m0 {
			t.Fatalf("round %d left m at %d", round, m)
		}
		stale := 0
		for _, sg := range cachedGroups(eng) {
			stale += sg.kptU.StaleCount()
		}
		if stale == 0 {
			t.Fatalf("round %d: the deltas left no KPT set stale; the test needs a repair", round)
		}
		label := fmt.Sprintf("round %d", round)
		g, m := eng.Current()
		a0, s0 := solve(NewEngine(g, m, EngineOptions{Workers: 1}))
		a1, s1 := solve(eng)
		requireSameSolve(t, label+" first solve", a0, s0, a1, s1)
		sets := kptSetCount(eng)
		a2, s2 := solve(eng)
		requireSameSolve(t, label+" second solve", a0, s0, a2, s2)
		if got := kptSetCount(eng); got != sets {
			t.Fatalf("%s: the repeated solve drew %d KPT sets", label, got-sets)
		}
		requireKptStreamPrefix(t, label, eng)
	}
}

// A ShareSamples solve canceled while it draws KPT sets leaves the
// entry's KPT universe an exact prefix of its stream, and later solves
// on the Engine equal cold ones. The countdown is armed at the start of
// the solve (its first estimate at s = 1) or at a committed seed (a
// refresh after an Eq. 10 growth). An uncanceled solve's progress
// events see the KPT universe only between estimates, so a canceled
// one that ends holding a size no event saw stopped a draw part-way;
// at least one cancellation of each kind must.
func TestCanceledKptDrawLeavesPrefix(t *testing.T) {
	p := smallWCProblem(3, 36)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.2, Seed: 4,
		MaxThetaPerAd: 200000, ShareSamples: true}
	coldEng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 1})
	between := map[int]bool{0: true} // KPT universe sizes between estimates
	cold := opt
	cold.Progress = func(ProgressEvent) { between[kptSetCount(coldEng)] = true }
	want, wantStats, err := coldEng.Solve(context.Background(), p, cold)
	if err != nil {
		t.Fatal(err)
	}
	var partial [2]bool // at the start, at a seed
	for _, seed := range []int{0, 1, 3} {
		for _, polls := range []int64{0, 1, 2, 4, 8} {
			label := fmt.Sprintf("seed=%d polls=%d", seed, polls)
			eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 4})
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(polls)
			run := opt
			if seed > 0 {
				ctx.left.Store(math.MaxInt64)
				assigned := 0
				run.Progress = func(ev ProgressEvent) {
					if ev.Kind == ProgressSeedAssigned {
						if assigned++; assigned == seed {
							ctx.left.Store(polls)
						}
					}
				}
			}
			if _, _, err := eng.Solve(ctx, p, run); !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s: err = %v, want ErrCanceled", label, err)
			}
			requireKptStreamPrefix(t, label, eng)
			if !between[kptSetCount(eng)] {
				partial[min(seed, 1)] = true
			}
			for i := 0; i < 2; i++ {
				got, gotStats, err := eng.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("%s: solve %d: %v", label, i, err)
				}
				requireSameSolve(t, fmt.Sprintf("%s: solve %d", label, i), want, wantStats, got, gotStats)
			}
		}
	}
	if !partial[0] || !partial[1] {
		t.Fatalf("cancellations stopped a KPT draw part-way: armed at the start %v, at a seed %v", partial[0], partial[1])
	}
}

// A swap that finds a ShareSamples entry locked by an in-flight solve
// drops the entry's KPT sets with its RR universe: the new generation
// starts an empty KPT universe, and its solve equals a cold Engine's.
func TestSwapDropsLockedKptUniverse(t *testing.T) {
	p := smallWCProblem(3, 61)
	eng := engineFor(p, 2)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 17,
		MaxThetaPerAd: 20000, ShareSamples: true}
	if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	var old *rrset.Universe
	for _, sg := range cachedGroups(eng) {
		old = sg.kptU
	}
	if old == nil || old.Size() == 0 {
		t.Fatal("the first solve cached no KPT sets")
	}

	paused, release := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	held := opt
	held.Progress = func(ProgressEvent) {
		if once.CompareAndSwap(false, true) {
			close(paused)
			<-release
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := eng.Solve(context.Background(), p, held)
		done <- err
	}()
	<-paused
	au, av := pickMissingEdge(t, p.Graph)
	res, err := eng.ApplyDelta(context.Background(), &graph.Delta{AddEdges: []graph.Edge{{U: au, V: av}}})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight solve: %v", err)
	}
	if res.DroppedUniverses != 1 || res.CarriedUniverses != 0 || eng.CachedUniverses() != 0 {
		t.Fatalf("swap dropped %d and carried %d entries, %d cached; want 1, 0, 0",
			res.DroppedUniverses, res.CarriedUniverses, eng.CachedUniverses())
	}

	p1 := rebindProblem(eng, p)
	got, gotStats, err := eng.Solve(context.Background(), p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range cachedGroups(eng) {
		if sg.kptU == old {
			t.Fatal("the new generation reads the dropped entry's KPT universe")
		}
	}
	requireKptStreamPrefix(t, "after the drop", eng)
	want, wantStats, err := solveWith(p1, EngineOptions{Workers: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSolve(t, "after the drop", want, wantStats, got, gotStats)
}
