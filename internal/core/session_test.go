package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/topic"
)

// engineFor builds an Engine for a test problem at the given worker
// count.
func engineFor(p *Problem, workers int) *Engine {
	return NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers})
}

// solveFresh runs one solve on a throwaway default Engine.
func solveFresh(p *Problem, opt Options) (*Allocation, *Stats, error) {
	return solveWith(p, EngineOptions{}, opt)
}

// solveWith runs one solve on a throwaway Engine built with eo.
func solveWith(p *Problem, eo EngineOptions, opt Options) (*Allocation, *Stats, error) {
	return NewEngine(p.Graph, p.Model, eo).Solve(context.Background(), p, opt)
}

// A long-lived Engine reused across modes and sharing settings must be
// bit-identical to a fresh Engine per solve for a fixed Seed, at both
// the sequential and the parallel sampler configuration.
func TestEngineSolveMatchesLegacy(t *testing.T) {
	p := smallWCProblem(4, 31)
	for _, workers := range []int{1, 4} {
		eng := engineFor(p, workers)
		for _, mode := range []Mode{ModeCostAgnostic, ModeCostSensitive} {
			for _, share := range []bool{false, true} {
				opt := Options{Mode: mode, Epsilon: 0.3, Seed: 17,
					MaxThetaPerAd: 30000, ShareSamples: share}
				fresh, freshStats, err := solveWith(p, EngineOptions{Workers: workers}, opt)
				if err != nil {
					t.Fatalf("fresh workers=%d mode=%v share=%v: %v", workers, mode, share, err)
				}
				got, gotStats, err := eng.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("engine workers=%d mode=%v share=%v: %v", workers, mode, share, err)
				}
				allocationsEqual(t, fresh, got)
				for i := range freshStats.Theta {
					if freshStats.Theta[i] != gotStats.Theta[i] {
						t.Errorf("workers=%d mode=%v share=%v: θ[%d] %d vs %d",
							workers, mode, share, i, freshStats.Theta[i], gotStats.Theta[i])
					}
				}
				if gotStats.SampleWorkers != workers {
					t.Errorf("SampleWorkers = %d, want %d", gotStats.SampleWorkers, workers)
				}
			}
		}
	}
}

// One Engine serving 8 concurrent Solve calls must be race-free (this
// test is the -race acceptance criterion) and every session must land on
// the same allocation a cold run on a fresh Engine with its seed produces.
func TestEngineConcurrentSolves(t *testing.T) {
	p := smallWCProblem(3, 32)
	eng := engineFor(p, 2)
	type job struct {
		seed  uint64
		mode  Mode
		share bool
	}
	jobs := make([]job, 8)
	for i := range jobs {
		jobs[i] = job{
			seed:  uint64(40 + i%4), // seeds collide across goroutines on purpose
			mode:  []Mode{ModeCostAgnostic, ModeCostSensitive}[i%2],
			share: i%4 >= 2,
		}
	}
	got := make([]*Allocation, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			opt := Options{Mode: j.mode, Epsilon: 0.3, Seed: j.seed,
				MaxThetaPerAd: 20000, ShareSamples: j.share}
			got[i], _, errs[i] = eng.Solve(context.Background(), p, opt)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent solve %d: %v", i, err)
		}
	}
	for i, j := range jobs {
		opt := Options{Mode: j.mode, Epsilon: 0.3, Seed: j.seed,
			MaxThetaPerAd: 20000, ShareSamples: j.share}
		want, _, err := solveFresh(p, opt)
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		allocationsEqual(t, want, got[i])
	}
}

// With ShareSamples, a warm Engine re-solving the same instance must hit
// the cross-solve universe cache and still reproduce the cold run bit
// for bit (prefix views hide the pre-grown tail of a cached universe).
func TestEngineUniverseCacheBitIdentical(t *testing.T) {
	p := smallWCProblem(4, 33) // CompetingAds(l=1): all ads share one gamma
	eng := engineFor(p, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 21,
		MaxThetaPerAd: 20000, ShareSamples: true}

	cold, coldStats, err := eng.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eng.CachedUniverses() != coldStats.ShareGroups || coldStats.ShareGroups == 0 {
		t.Fatalf("cache holds %d universes, stats report %d groups",
			eng.CachedUniverses(), coldStats.ShareGroups)
	}
	warm, warmStats, err := eng.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, cold, warm)
	for i := range coldStats.Theta {
		if coldStats.Theta[i] != warmStats.Theta[i] {
			t.Errorf("θ[%d]: cold %d vs warm %d", i, coldStats.Theta[i], warmStats.Theta[i])
		}
	}
	// A cache hit must not claim the pre-grown universe tail as its own
	// sampling work.
	if coldStats.TotalRRSets != warmStats.TotalRRSets {
		t.Errorf("TotalRRSets: cold %d vs warm %d", coldStats.TotalRRSets, warmStats.TotalRRSets)
	}
	// A different budget mix (the replanning pattern: same instance,
	// shrunk budgets) reuses the same cached universe and stays valid.
	shrunk := *p
	shrunk.Ads = append([]topic.Ad(nil), p.Ads...)
	for i := range shrunk.Ads {
		shrunk.Ads[i].Budget *= 0.5
	}
	replanned, _, err := eng.Solve(context.Background(), &shrunk, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := replanned.ValidateSlack(&shrunk, 0.3); err != nil {
		t.Fatal(err)
	}
	if eng.CachedUniverses() != coldStats.ShareGroups {
		t.Errorf("replanning created new cache entries: %d", eng.CachedUniverses())
	}
	if eng.CachedUniverseBytes() <= 0 {
		t.Error("cached universe bytes not reported")
	}
	eng.Reset()
	if eng.CachedUniverses() != 0 {
		t.Error("Reset did not drop the universe cache")
	}
}

// A context canceled before the solve starts returns promptly with an
// error chain matching both ErrCanceled and context.Canceled, plus
// non-nil partial Stats.
func TestEngineSolveCanceledUpFront(t *testing.T) {
	p := smallWCProblem(2, 34)
	eng := engineFor(p, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	alloc, stats, err := eng.Solve(ctx, p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 1})
	if alloc != nil {
		t.Error("canceled solve returned an allocation")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if stats == nil || stats.Duration < 0 {
		t.Fatal("canceled solve must return partial stats")
	}
}

// Canceling from inside the progress hook aborts the greedy loop (and
// any in-flight sample growth) with ErrCanceled, and the partial Stats
// reflect work actually done. This exercises the mid-solve cancellation
// path deterministically, without wall-clock racing.
func TestEngineSolveCanceledMidRun(t *testing.T) {
	p := smallWCProblem(3, 35)
	for _, share := range []bool{false, true} {
		eng := engineFor(p, 2)
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		opt := Options{
			Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 2,
			MaxThetaPerAd: 20000, ShareSamples: share,
			Progress: func(ev ProgressEvent) {
				events++
				if events == 3 {
					cancel()
				}
			},
		}
		alloc, stats, err := eng.Solve(ctx, p, opt)
		if alloc != nil {
			t.Fatalf("share=%v: canceled solve returned an allocation", share)
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("share=%v: err = %v, want ErrCanceled chain", share, err)
		}
		if stats == nil || stats.TotalRRSets == 0 {
			t.Fatalf("share=%v: partial stats missing sampled work: %+v", share, stats)
		}
		// A canceled session's universes hold exact stream prefixes, so
		// they stay cached and the next session continues them.
		if share && eng.CachedUniverses() == 0 {
			t.Errorf("share=%v: canceled solve dropped its cached universes", share)
		}
		// The Engine must remain fully usable after a canceled session,
		// and answer as a cold Engine does.
		again, _, err := eng.Solve(context.Background(), p, Options{
			Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 2,
			MaxThetaPerAd: 20000, ShareSamples: share,
		})
		if err != nil {
			t.Fatalf("share=%v: solve after cancellation: %v", share, err)
		}
		want, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 2,
			MaxThetaPerAd: 20000, ShareSamples: share})
		if err != nil {
			t.Fatal(err)
		}
		allocationsEqual(t, want, again)
	}
}

// Every input-validation failure surfaces as ErrInvalidProblem instead of
// a panic — the sentinel-error contract of the solve path.
func TestEngineSolveInvalidInputs(t *testing.T) {
	p := smallWCProblem(2, 36)
	eng := engineFor(p, 1)
	ctx := context.Background()
	cases := []struct {
		name string
		p    *Problem
		opt  Options
	}{
		{"unknown mode", p, Options{Mode: Mode(99)}},
		{"negative epsilon", p, Options{Epsilon: -0.1}},
		{"negative ell", p, Options{Ell: -1}},
		{"negative window", p, Options{Window: -5}},
		{"negative maxtheta", p, Options{MaxThetaPerAd: -1}},
		{"pagerank without scores", p, Options{Mode: ModePRGreedy}},
		{"pagerank ragged scores", p, Options{Mode: ModePRGreedy,
			PRScores: make([][]float64, p.NumAds())}},
		{"malformed problem", &Problem{}, Options{}},
	}
	for _, tc := range cases {
		_, _, err := eng.Solve(ctx, tc.p, tc.opt)
		if !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("%s: err = %v, want ErrInvalidProblem", tc.name, err)
		}
	}
	// A problem built on a different graph/model is rejected even if
	// well-formed.
	other := smallWCProblem(2, 37)
	if _, _, err := eng.Solve(ctx, other, Options{}); !errors.Is(err, ErrInvalidProblem) {
		t.Errorf("foreign problem: err = %v, want ErrInvalidProblem", err)
	}
	if _, err := eng.Evaluate(ctx, other, NewAllocation(2), 10, 1, 1); !errors.Is(err, ErrInvalidProblem) {
		t.Errorf("foreign evaluate: err = %v, want ErrInvalidProblem", err)
	}
	// Out-of-range seed ids in an evaluated allocation (which may come
	// from outside Solve — e.g. a serving-layer client) must be rejected,
	// not panic inside a simulation goroutine.
	for _, u := range []int32{-1, p.Graph.NumNodes(), 1 << 30, 2147483647} {
		bad := NewAllocation(2)
		bad.Seeds[0] = []int32{u}
		if _, err := eng.Evaluate(ctx, p, bad, 10, 2, 1); !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("evaluate seed %d: err = %v, want ErrInvalidProblem", u, err)
		}
	}
}

// TestEvaluateGolden pins the Monte-Carlo estimators bit for bit:
// Engine.Evaluate's per-ad spreads on smallWCProblem(3, 38), and
// EvaluateCompetitive and cascade.SingletonSpreads on one fixed input
// each, plus Evaluate's cancellation. Every MC run draws from its own
// seed, so one row per estimator must hold at every worker count,
// whichever goroutine draws which run.
func TestEvaluateGolden(t *testing.T) {
	p := smallWCProblem(3, 38)
	eng := engineFor(p, 1)
	ctx := context.Background()
	alloc, _, err := eng.Solve(ctx, p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 5, MaxThetaPerAd: 20000})
	if err != nil {
		t.Fatal(err)
	}
	wantEval := [3]uint64{0x4046000000000000, 0x40506d0369d0369d, 0x404117e4b17e4b18}
	wantComp := [3]uint64{0x4046000000000000, 0x404ea4b17e4b17e5, 0x403993a06d3a06d4}
	const wantSingle uint64 = 0xf5b8908110f6ea34
	for _, workers := range []int{1, 2, 3, 4} {
		ev, err := eng.Evaluate(ctx, p, alloc, 300, workers, 77)
		if err != nil {
			t.Fatal(err)
		}
		var gotEval, gotComp [3]uint64
		for i := range gotEval {
			gotEval[i] = math.Float64bits(ev.Spread[i])
		}
		comp := EvaluateCompetitive(p, alloc, 300, workers, 77)
		for i := range gotComp {
			gotComp[i] = math.Float64bits(comp.Spread[i])
		}
		h := fnv.New64a()
		for _, s := range cascade.SingletonSpreads(p.Graph, p.EdgeProbs(0), 50, workers, 77) {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(s))
		}
		gotSingle := h.Sum64()
		t.Logf("workers=%d: evaluate=%#x competitive=%#x singletons=%#x", workers, gotEval, gotComp, gotSingle)
		if gotEval != wantEval {
			t.Errorf("workers=%d: Evaluate spread bits %#x, want %#x", workers, gotEval, wantEval)
		}
		if gotComp != wantComp {
			t.Errorf("workers=%d: EvaluateCompetitive spread bits %#x, want %#x", workers, gotComp, wantComp)
		}
		if gotSingle != wantSingle {
			t.Errorf("workers=%d: SingletonSpreads hash %#x, want %#x", workers, gotSingle, wantSingle)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Evaluate(canceled, p, alloc, 300, 2, 77); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled evaluate: err = %v, want ErrCanceled", err)
	}
}

// Progress events stream per-ad θ growth and the revenue curve: θ is
// non-decreasing per ad, seed assignments carry the node, and the running
// revenue of seed-assignment events is non-decreasing (the greedy only
// adds non-negative marginal revenue).
func TestEngineProgressEvents(t *testing.T) {
	p := smallWCProblem(3, 39)
	eng := engineFor(p, 1)
	lastTheta := map[int]int{}
	lastRevenue := -1.0
	var growth, assigned int
	opt := Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 6, MaxThetaPerAd: 200000,
		Progress: func(ev ProgressEvent) {
			switch ev.Kind {
			case ProgressSampleGrowth:
				growth++
				if ev.Node != -1 {
					t.Errorf("growth event carries node %d", ev.Node)
				}
			case ProgressSeedAssigned:
				assigned++
				if ev.Node < 0 {
					t.Error("assignment event missing node")
				}
				if ev.TotalRevenue < lastRevenue {
					t.Errorf("revenue curve decreased: %v -> %v", lastRevenue, ev.TotalRevenue)
				}
				lastRevenue = ev.TotalRevenue
			}
			if ev.Theta < lastTheta[ev.Ad] {
				t.Errorf("ad %d: θ shrank %d -> %d", ev.Ad, lastTheta[ev.Ad], ev.Theta)
			}
			lastTheta[ev.Ad] = ev.Theta
		},
	}
	alloc, stats, err := eng.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if assigned != alloc.NumSeeds() {
		t.Errorf("%d assignment events for %d seeds", assigned, alloc.NumSeeds())
	}
	if growth == 0 || stats.GrowthEvents == 0 {
		t.Error("no growth events observed")
	}
	// The hook must not have perturbed the solve.
	want, _, err := solveFresh(p, Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 6, MaxThetaPerAd: 200000})
	if err != nil {
		t.Fatal(err)
	}
	allocationsEqual(t, want, alloc)
}

// Reading the Engine's memory telemetry while a ShareSamples solve grows
// a cached universe must be race-free (run under -race in CI).
func TestEngineCacheBytesConcurrentWithSolve(t *testing.T) {
	p := smallWCProblem(3, 42)
	eng := engineFor(p, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				_ = eng.CachedUniverseBytes()
				_ = eng.CachedUniverses()
				_ = eng.SamplerMemoryBytes()
			}
		}
	}()
	_, _, err := eng.Solve(context.Background(), p, Options{
		Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 3, MaxThetaPerAd: 20000, ShareSamples: true,
	})
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if eng.CachedUniverseBytes() <= 0 {
		t.Error("cache bytes not refreshed after growth")
	}
}

// A panic escaping the solve (e.g. from a user Progress hook) must not
// leave a cached universe's mutex locked: the next solve on the same
// (gamma, seed) proceeds instead of deadlocking, and matches a cold run.
func TestEnginePanicReleasesCacheLocks(t *testing.T) {
	p := smallWCProblem(2, 43)
	eng := engineFor(p, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 8,
		MaxThetaPerAd: 20000, ShareSamples: true}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the hook panic to propagate")
			}
		}()
		bad := opt
		bad.Progress = func(ProgressEvent) { panic("hook gone wrong") }
		_, _, _ = eng.Solve(context.Background(), p, bad)
	}()
	type result struct {
		alloc *Allocation
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		a, _, err := eng.Solve(context.Background(), p, opt)
		ch <- result{a, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		want, _, err := solveFresh(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		allocationsEqual(t, want, r.alloc)
	case <-time.After(30 * time.Second):
		t.Fatal("solve after a panicking session deadlocked on the universe cache")
	}
}

// A solve queued behind a long-running session on the same universe-cache
// entry must honor its own deadline while waiting for the entry, instead
// of parking until the holder finishes.
func TestEngineCacheLockHonorsContext(t *testing.T) {
	p := smallWCProblem(2, 44)
	eng := engineFor(p, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 9,
		MaxThetaPerAd: 20000, ShareSamples: true}

	holderCtx, stopHolder := context.WithCancel(context.Background())
	gate := make(chan struct{})
	holding := make(chan struct{})
	holderDone := make(chan struct{})
	holdOpt := opt
	first := true
	holdOpt.Progress = func(ProgressEvent) {
		if first {
			first = false
			close(holding) // entry lock is held from init until solve end
			<-gate
		}
	}
	go func() {
		defer close(holderDone)
		_, _, _ = eng.Solve(holderCtx, p, holdOpt)
	}()
	<-holding

	waiterCtx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := eng.Solve(waiterCtx, p, opt)
		waiterDone <- err
	}()
	cancel() // the waiter is parked on the entry lock; it must abandon
	select {
	case err := <-waiterDone:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("queued solve: err = %v, want ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued solve ignored its canceled context while waiting for the cache entry")
	}
	stopHolder()
	close(gate)
	<-holderDone
}

// A stale session that fails after Engine.Reset must leave the fresh
// entry a later session cached under the same key in place.
func TestEngineEvictionChecksEntryIdentity(t *testing.T) {
	p := smallWCProblem(2, 45)
	eng := engineFor(p, 1)
	opt := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 10,
		MaxThetaPerAd: 20000, ShareSamples: true}

	staleCtx, cancelStale := context.WithCancel(context.Background())
	gate := make(chan struct{})
	holding := make(chan struct{})
	staleDone := make(chan error, 1)
	staleOpt := opt
	first := true
	staleOpt.Progress = func(ProgressEvent) {
		if first {
			first = false
			close(holding)
			<-gate
		}
	}
	go func() {
		_, _, err := eng.Solve(staleCtx, p, staleOpt)
		staleDone <- err
	}()
	<-holding

	// Orphan the stale session's entry, then cache a fresh one under the
	// same key with a clean solve.
	eng.Reset()
	if _, _, err := eng.Solve(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	fresh := eng.CachedUniverses()
	if fresh == 0 {
		t.Fatal("fresh solve cached no universe")
	}
	// Fail the stale session; the fresh entry must survive it.
	cancelStale()
	close(gate)
	if err := <-staleDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("stale session: err = %v, want ErrCanceled", err)
	}
	if got := eng.CachedUniverses(); got != fresh {
		t.Errorf("stale session removed the fresh entry: %d cached, want %d", got, fresh)
	}
}

// countdownCtx reports context.Canceled on every Err call after its
// first left ones. The samplers poll Err once per batch, so a small left
// cancels a solve inside its sampling, between two batches of one
// growth.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A ShareSamples solve canceled mid-growth leaves its cached universe an
// exact prefix of its stream, so later solves on the same Engine give
// what uncanceled cold solves give: first one that needs a smaller
// sample than the canceled one asked for, then the canceled solve
// itself. The cancellation points are keyed on solver events, not on
// how often sampling polls in total: the Progress hook arms the
// countdown at the seed-th committed seed, so the first poll after it
// falls in that seed's KPT refresh or sample growth, and a few dozen
// polls more stop a growth part-way (the one after seed 6 adds about
// 8,400 sets). seed 0 cancels from the start, at the first KPT poll.
// The θ cap sits above the big solve's θ, so its growth events sample.
func TestEngineCanceledGrowthResumesExactly(t *testing.T) {
	p := smallWCProblem(3, 36)
	small := Options{Mode: ModeCostSensitive, Epsilon: 0.3, Seed: 4,
		MaxThetaPerAd: 200000, ShareSamples: true}
	big := small
	big.Epsilon = 0.2
	type ref struct {
		alloc *Allocation
		stats *Stats
	}
	var refs [2]ref
	for i, opt := range []Options{small, big} {
		a, st, err := solveWith(p, EngineOptions{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{a, st}
	}
	for _, tc := range []struct {
		seed  int
		polls int64
	}{{0, 1}, {1, 0}, {5, 1}, {6, 0}, {6, 20}, {10, 40}} {
		name := fmt.Sprintf("seed=%d polls=%d", tc.seed, tc.polls)
		eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: 4})
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(tc.polls)
		opt := big
		if tc.seed > 0 {
			ctx.left.Store(math.MaxInt64) // until the hook arms it
			assigned := 0
			opt.Progress = func(ev ProgressEvent) {
				if ev.Kind == ProgressSeedAssigned {
					if assigned++; assigned == tc.seed {
						ctx.left.Store(tc.polls)
					}
				}
			}
		}
		_, stats, err := eng.Solve(ctx, p, opt)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if stats.TotalRRSets >= refs[1].stats.TotalRRSets {
			t.Fatalf("%s: canceled solve drew %d sets, the full solve %d", name, stats.TotalRRSets, refs[1].stats.TotalRRSets)
		}
		for i, opt := range []Options{small, big} {
			got, gotStats, err := eng.Solve(context.Background(), p, opt)
			if err != nil {
				t.Fatalf("%s: solve %d: %v", name, i, err)
			}
			allocationsEqual(t, refs[i].alloc, got)
			if fmt.Sprint(gotStats.Theta) != fmt.Sprint(refs[i].stats.Theta) {
				t.Fatalf("%s: solve %d: θ %v after a canceled solve, %v cold", name, i, gotStats.Theta, refs[i].stats.Theta)
			}
		}
	}
}
