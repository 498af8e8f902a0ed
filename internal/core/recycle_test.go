package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// recycleProblems returns a 3-ad problem and a larger 6-ad problem on
// the same graph and model, so both solve on one Engine.
func recycleProblems() (small, large *Problem) {
	large = smallWCProblem(6, 41)
	small = &Problem{Graph: large.Graph, Model: large.Model,
		Ads: large.Ads[:3], Incentives: large.Incentives[:3]}
	return small, large
}

// freeSets returns the member lists of the current snapshot's free
// list, universe by universe.
func freeSets(e *Engine) [][][]int32 {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	out := make([][][]int32, len(sn.free))
	for i, u := range sn.free {
		out[i] = make([][]int32, u.Size())
		for id := range out[i] {
			out[i][id] = append([]int32(nil), u.Set(int32(id))...)
		}
	}
	return out
}

// freeGroups returns the length of a snapshot's free list.
func freeGroups(sn *snapshot) int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.free)
}

// statsEqual fails unless two solves report the same per-ad θ, KPT and
// seed counts, RR-set count, growth events and RR memory.
func statsEqual(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	if !slices.Equal(want.Theta, got.Theta) || !slices.Equal(want.Kpt, got.Kpt) ||
		!slices.Equal(want.SeedCounts, got.SeedCounts) {
		t.Fatalf("%s: theta/kpt/seeds %v %v %v, cold %v %v %v", label,
			got.Theta, got.Kpt, got.SeedCounts, want.Theta, want.Kpt, want.SeedCounts)
	}
	if want.TotalRRSets != got.TotalRRSets || want.GrowthEvents != got.GrowthEvents {
		t.Fatalf("%s: %d RR sets, %d growths; cold %d, %d", label,
			got.TotalRRSets, got.GrowthEvents, want.TotalRRSets, want.GrowthEvents)
	}
	if want.RRMemoryBytes != got.RRMemoryBytes {
		t.Fatalf("%s: RRMemoryBytes %d, cold %d (must not depend on the Engine's history)",
			label, got.RRMemoryBytes, want.RRMemoryBytes)
	}
}

// A solve on recycled arenas equals the same solve on a fresh Engine,
// after a larger solve and after a canceled one: allocation, θ, RR-set
// count, RRMemoryBytes, and every set of every universe (read back from
// the free list the solve refilled).
func TestRecycledSolveEqualsCold(t *testing.T) {
	small, large := recycleProblems()
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 11, MaxThetaPerAd: 50000}
	largeOpt := Options{Mode: ModeCostAgnostic, Epsilon: 0.2, Seed: 5, MaxThetaPerAd: 100000}
	cold := NewEngine(small.Graph, small.Model, EngineOptions{})
	want, wantStats, err := cold.Solve(context.Background(), small, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantSets := freeSets(cold)
	if len(wantSets) != len(small.Ads) {
		t.Fatalf("cold solve released %d universes, want %d", len(wantSets), len(small.Ads))
	}

	warm := NewEngine(small.Graph, small.Model, EngineOptions{})
	if _, _, err := warm.Solve(context.Background(), large, largeOpt); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, gotStats, err := warm.Solve(context.Background(), small, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		allocationsEqual(t, want, got)
		statsEqual(t, label, wantStats, gotStats)
		if !slices.EqualFunc(wantSets, freeSets(warm), func(a, b [][]int32) bool {
			return slices.EqualFunc(a, b, slices.Equal)
		}) {
			t.Fatalf("%s: recycled sets differ from a cold solve's", label)
		}
	}
	check("after a larger solve")

	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(60)
	_, st, err := warm.Solve(ctx, large, largeOpt)
	if !errors.Is(err, ErrCanceled) || st.TotalRRSets == 0 {
		t.Fatalf("canceled solve returned %v after %d RR sets; want ErrCanceled mid-sampling",
			err, st.TotalRRSets)
	}
	check("after a canceled solve")
}

// Concurrent exclusive solves on one Engine take and return universes
// through the free list from several goroutines at once (the per-ad
// init goroutines and the solves themselves); every solve still equals
// the same solve on a fresh Engine. Run it under -race.
func TestConcurrentRecycledSolvesEqualCold(t *testing.T) {
	small, large := recycleProblems()
	probs := []*Problem{small, large}
	opts := make([]Options, 6)
	want := make([]*Allocation, len(opts))
	wantStats := make([]*Stats, len(opts))
	for i := range opts {
		opts[i] = Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: uint64(20 + i), MaxThetaPerAd: 20000}
		var err error
		want[i], wantStats[i], err = NewEngine(small.Graph, small.Model, EngineOptions{}).
			Solve(context.Background(), probs[i%2], opts[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(small.Graph, small.Model, EngineOptions{Workers: 2})
	const rounds = 2
	got := make([][]*Allocation, rounds)
	gotStats := make([][]*Stats, rounds)
	errs := make([][]error, rounds)
	for r := range got {
		got[r] = make([]*Allocation, len(opts))
		gotStats[r] = make([]*Stats, len(opts))
		errs[r] = make([]error, len(opts))
	}
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[r][i], gotStats[r][i], errs[r][i] = eng.Solve(context.Background(), probs[i%2], opts[i])
			}
		}(i)
	}
	wg.Wait()
	for r := range got {
		for i := range opts {
			if errs[r][i] != nil {
				t.Fatalf("round %d solve %d: %v", r, i, errs[r][i])
			}
			allocationsEqual(t, want[i], got[r][i])
			statsEqual(t, "concurrent", wantStats[i], gotStats[r][i])
		}
	}
}

// A warm exclusive solve refills recycled arenas instead of growing
// fresh ones: it allocates less than a quarter of the RR memory it
// reports. Allocation is counted in bytes, not timed.
func TestWarmSolveAllocation(t *testing.T) {
	small, large := recycleProblems()
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 11, MaxThetaPerAd: 50000}
	eng := NewEngine(small.Graph, small.Model, EngineOptions{})
	if _, _, err := eng.Solve(context.Background(), large,
		Options{Mode: ModeCostAgnostic, Epsilon: 0.2, Seed: 5, MaxThetaPerAd: 100000}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st, err := eng.Solve(context.Background(), small, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("warm solve allocated %d bytes for %d RR bytes", alloc, st.RRMemoryBytes)
	if alloc*4 >= st.RRMemoryBytes {
		t.Fatalf("warm solve allocated %d bytes, want < RRMemoryBytes/4 = %d", alloc, st.RRMemoryBytes/4)
	}
}

// Reset empties the free list, and an ApplyDelta swap leaves no
// recycled group on either snapshot; a solve finishing on the superseded
// snapshot does not refill its list.
func TestResetAndSwapDropRecycledGroups(t *testing.T) {
	p := smallWCProblem(3, 43)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 7, MaxThetaPerAd: 20000}
	eng := NewEngine(p.Graph, p.Model, EngineOptions{})
	solve := func(p *Problem) {
		t.Helper()
		if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
			t.Fatal(err)
		}
	}
	solve(p)
	if got := freeGroups(eng.cur.Load()); got != len(p.Ads) {
		t.Fatalf("free list holds %d groups after a %d-ad solve", got, len(p.Ads))
	}
	eng.Reset()
	if got := freeGroups(eng.cur.Load()); got != 0 {
		t.Fatalf("Reset left %d recycled groups", got)
	}

	solve(p)
	old := eng.cur.Load()
	u, v := pickMissingEdge(t, p.Graph)
	if _, err := eng.ApplyDelta(context.Background(), &graph.Delta{AddEdges: []graph.Edge{{U: u, V: v}}}); err != nil {
		t.Fatal(err)
	}
	if got, prev := freeGroups(eng.cur.Load()), freeGroups(old); got != 0 || prev != 0 {
		t.Fatalf("after a swap the free lists hold %d (current) and %d (superseded) groups", got, prev)
	}
	solve(p) // still resolves on the superseded snapshot
	if got := freeGroups(old); got != 0 {
		t.Fatalf("a solve on the superseded snapshot refilled its free list with %d groups", got)
	}
	solve(rebindProblem(eng, p))
	if got := freeGroups(eng.cur.Load()); got != len(p.Ads) {
		t.Fatalf("free list holds %d groups after a solve on the new generation", got)
	}
}
