package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// EngineOptions configures a long-lived Engine: the resources that are
// fixed per (dataset, topic model) and shared by every solve session on
// it. Per-solve knobs (mode, ε, window, seed, budgets) stay in Options.
type EngineOptions struct {
	// Workers is the number of RR-sampling scratch slots in the Engine's
	// shared pool, bounding both scratch memory (O(Workers·n) for the
	// whole Engine, a visited array of 8n bytes per slot, lazily built)
	// and the number of concurrently sampling goroutines across every
	// Solve in flight. 0 reads as 1, which samples on one goroutine at a
	// time. It never changes an answer: every RR set is drawn from its
	// own per-slot seed, so a solve is bit-identical at every Workers.
	//
	// ApplyDelta's RR-universe repair is not bounded by it. It runs one
	// swap at a time under the swap lock and fans out to GOMAXPROCS
	// goroutines, borrowing the pool's free slots first and keeping one
	// repair-only scratch (8n bytes, also in Stats.SamplerMemoryBytes)
	// per goroutine beyond them.
	Workers int
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// universeKey identifies one cross-solve shared RR-set universe: the
// normalized topic distribution (gammaKey) determines the RR-set
// distribution, the stream seed pins the exact deterministic sample
// sequence and the KPT seed the KPT sample's.
type universeKey struct {
	gamma   string
	seed    uint64
	kptSeed uint64
}

// sharedGroup is one cached RR sample: a universe and the deterministic
// stream that fills it, beside the group's KPT sets. Its lock (a 1-slot
// channel, so waiters can abandon on context cancellation) is held by a
// solve session for the session's whole lifetime, serializing the
// (rare) case of concurrent solves that share both topic distribution
// and seed; solves with different seeds or gammas never contend. The stream's position always
// equals the universe's size, so growing the sample from any session
// extends the same deterministic sequence.
type sharedGroup struct {
	lock chan struct{}
	u    *rrset.Universe
	src  *rrset.Stream
	// kptU holds the KPT sets sessions have drawn from the key's KPT
	// seed, slot k drawn as xrand.SlotSeed(kptSeed, k) like u's sets, so
	// a re-solve reads their widths instead of redrawing them. A swap
	// only invalidates it (its stale sets are not part of the delta's
	// repair); the first session to lock the carried entry repairs it on
	// its own generation before estimating.
	kptU *rrset.Universe
	// gamma is the entry's (unnormalized) topic distribution, kept so a
	// generation swap can re-materialize edge probabilities on the new
	// model when carrying the universe forward.
	gamma topic.Distribution
	// bytes caches footprint(), refreshed by the holding session after
	// growth, so monitors (CachedUniverseBytes) can read a consistent
	// size without touching universe internals that a concurrent session
	// may be appending to.
	bytes atomic.Int64
	// dead marks an entry a swap carried into a newer generation; waiters
	// re-fetch a fresh entry from the cache instead of using it. Written
	// and read only while holding lock.
	dead bool
}

// footprint returns the heap bytes of the entry's RR and KPT sets.
func (sg *sharedGroup) footprint() int64 {
	return sg.u.MemoryFootprint() + sg.kptU.MemoryFootprint()
}

// snapshot is one immutable graph generation plus every cache keyed by
// it: the topic model, the sampling pool (whose scratch is sized by the
// graph), the free list of recycled exclusive universes, memoized edge
// probabilities and the shared-universe cache.
// Sessions pin a snapshot at entry and run on it to completion, so an
// ApplyDelta swapping in a successor never perturbs in-flight work.
type snapshot struct {
	graph *graph.Graph
	model *topic.Model
	// pool is the scratch pool every RR and KPT stream of the generation
	// samples through. Its scratch is lazily materialized.
	pool *rrset.Pool

	mu sync.Mutex
	// free holds the exclusive universes the most recently finished
	// exclusive solve on this snapshot released, for the next one to
	// reset and refill instead of growing fresh arenas from empty. It is
	// replaced, never appended to, so it holds at most one solve's
	// universes; it shares the snapshot's node count and is emptied when
	// the snapshot stops serving (ApplyDelta) or on Reset.
	free      []*rrset.Universe
	probs     map[string]adProbs
	universes map[universeKey]*sharedGroup
}

// adProbs is one memoized topic distribution's arc probabilities in both
// layouts: canonical (edge-ID order) for forward cascade simulation, and
// the in-CSR-order copy the RR-sampling kernel reads (+4 B per arc, +8 B
// per node for its path word, and a top-up list per mixed-path node).
type adProbs struct {
	canonical []float32
	sampling  rrset.SampleProbs
}

func newSnapshot(g *graph.Graph, model *topic.Model, opts EngineOptions) *snapshot {
	return &snapshot{
		graph:     g,
		model:     model,
		pool:      rrset.NewPool(g, rrset.PoolOptions{Workers: opts.Workers}),
		probs:     map[string]adProbs{},
		universes: map[universeKey]*sharedGroup{},
	}
}

// exclusiveUniverse returns an empty session-private universe for one
// exclusive ad: one from the free list emptied in place, or a new one
// when the list is empty. Both fill with exactly the same sets.
func (sn *snapshot) exclusiveUniverse() *rrset.Universe {
	sn.mu.Lock()
	var u *rrset.Universe
	if k := len(sn.free); k > 0 {
		u, sn.free[k-1] = sn.free[k-1], nil
		sn.free = sn.free[:k-1]
	}
	sn.mu.Unlock()
	if u == nil {
		return rrset.NewUniverse(sn.graph.NumNodes())
	}
	u.Reset()
	return u
}

// recycle makes a finished exclusive solve's universes the snapshot's
// free list; whatever the list still held goes to the GC. A snapshot
// that no longer serves keeps nothing: checking under sn.mu, against
// ApplyDelta emptying the list under sn.mu after it publishes the
// successor, means no recycle can outlive the swap.
func (e *Engine) recycle(sn *snapshot, universes []*rrset.Universe) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if e.cur.Load() == sn {
		sn.free = universes
	}
}

// edgeProbsFor returns the snapshot's memoized ad-specific arc
// probabilities for a topic distribution, materializing both layouts on
// first use. The returned slices are shared and must be treated as
// immutable.
func (sn *snapshot) edgeProbsFor(gamma topic.Distribution) adProbs {
	key := gammaKey(gamma)
	sn.mu.Lock()
	ps, ok := sn.probs[key]
	sn.mu.Unlock()
	if ok {
		return ps
	}
	ps.canonical = sn.model.EdgeProbs(gamma)
	ps.sampling = rrset.NewSampleProbs(sn.graph, ps.canonical)
	sn.mu.Lock()
	if prev, ok := sn.probs[key]; ok {
		ps = prev // a concurrent solve won the materialization race
	} else {
		sn.probs[key] = ps
	}
	sn.mu.Unlock()
	return ps
}

// Engine is a long-lived, concurrent-safe solver session factory for one
// (graph, topic model) pair — the substrate a server keeps per dataset.
// Construct it once with NewEngine, then issue any number of Solve /
// Evaluate calls, concurrently if desired:
//
//   - the RR-sampling scratch pool (Workers visited arrays, O(Workers·n)
//     bytes) is allocated once per graph generation and shared by every
//     call;
//   - ad-specific edge-probability vectors are memoized per normalized
//     topic distribution, so repeated solves over the same advertisers
//     skip the O(m) materialization;
//   - with Options.ShareSamples, RR-set universes are cached across
//     solves keyed on (normalized gammas, stream seed): a re-solve of the
//     same instance reuses the samples it already drew, growing them
//     only when a session needs more. Prefix views keep cache hits
//     bit-identical to a cold run;
//   - exclusive RR samples are recycled: a finished solve's per-ad
//     universes go on the snapshot's free list, and the next exclusive
//     solve empties and refills their arenas instead of growing fresh
//     ones (at most one solve's universes are kept; Reset and ApplyDelta
//     drop them).
//
// The graph is mutable through ApplyDelta (mutate.go): each delta
// compiles into a fresh immutable snapshot — graph, rebound topic
// model, pool and caches — swapped in atomically. Sessions pin the
// snapshot their Problem was built against (current or one swap old) at
// entry and finish on it, so mutation never races in-flight work.
//
// Every method honors context cancellation and returns sentinel errors
// (ErrInvalidProblem, ErrInfeasible, ErrCanceled, ErrSwapInProgress)
// instead of panicking.
type Engine struct {
	opts EngineOptions

	// cur is the serving snapshot; prev keeps exactly one older
	// generation alive so a Problem built just before a swap still
	// resolves. Both only ever transition under swapMu.
	cur  atomic.Pointer[snapshot]
	prev atomic.Pointer[snapshot]
	// swapMu serializes ApplyDelta. It is only ever TryLock'd — a swap
	// arriving while another is in flight fails fast with
	// ErrSwapInProgress instead of queueing conflicting generations.
	swapMu sync.Mutex

	// Cumulative per-solve counters (see EngineCounters). Atomics so a
	// monitoring endpoint can read them while solves are in flight.
	solvesStarted   atomic.Int64
	solvesCompleted atomic.Int64
	solvesFailed    atomic.Int64
	evaluations     atomic.Int64
	rrSetsSampled   atomic.Int64
	universeHits    atomic.Int64
	universeMisses  atomic.Int64
	mutations       atomic.Int64
	rrSetsInvalid   atomic.Int64
	rrSetsRepaired  atomic.Int64
	repairNanos     atomic.Int64
}

// EngineCounters is a snapshot of an Engine's cumulative work across all
// sessions it has served — the counters a long-running server exports as
// metrics. All fields only ever increase over the Engine's lifetime
// (Reset does not clear them: they describe work done, not state held).
type EngineCounters struct {
	// SolvesStarted / SolvesCompleted / SolvesFailed count Solve calls:
	// every call increments Started and then exactly one of the other
	// two. Failed includes validation rejections and canceled sessions.
	SolvesStarted   int64
	SolvesCompleted int64
	SolvesFailed    int64
	// Evaluations counts Evaluate calls that passed validation.
	Evaluations int64
	// RRSetsSampled accumulates Stats.TotalRRSets over every solve,
	// including the partial work of canceled sessions.
	RRSetsSampled int64
	// UniverseCacheHits / UniverseCacheMisses count cross-solve universe
	// cache lookups by ShareSamples sessions (a miss creates the entry).
	UniverseCacheHits   int64
	UniverseCacheMisses int64
	// Mutations counts completed ApplyDelta generation swaps.
	Mutations int64
	// RRSetsInvalidated / RRSetsRepaired count RR sets marked stale by
	// generation swaps and stale slots resampled during swaps.
	RRSetsInvalidated int64
	RRSetsRepaired    int64
	// RepairDuration sums DeltaResult.RepairDuration over those swaps.
	RepairDuration time.Duration
}

// Counters returns a consistent-enough snapshot of the Engine's
// cumulative counters (each field is individually atomic; the set is
// read without a lock, so a concurrent solve may be visible in Started
// but not yet in Completed/Failed).
func (e *Engine) Counters() EngineCounters {
	return EngineCounters{
		SolvesStarted:       e.solvesStarted.Load(),
		SolvesCompleted:     e.solvesCompleted.Load(),
		SolvesFailed:        e.solvesFailed.Load(),
		Evaluations:         e.evaluations.Load(),
		RRSetsSampled:       e.rrSetsSampled.Load(),
		UniverseCacheHits:   e.universeHits.Load(),
		UniverseCacheMisses: e.universeMisses.Load(),
		Mutations:           e.mutations.Load(),
		RRSetsInvalidated:   e.rrSetsInvalid.Load(),
		RRSetsRepaired:      e.rrSetsRepaired.Load(),
		RepairDuration:      time.Duration(e.repairNanos.Load()),
	}
}

// NewEngine builds an Engine for the graph and topic model. The options'
// Workers sizes the sampling pool every solve served by this Engine
// shares; it changes no answer.
func NewEngine(g *graph.Graph, model *topic.Model, opts EngineOptions) *Engine {
	opts = opts.withDefaults()
	e := &Engine{opts: opts}
	e.cur.Store(newSnapshot(g, model, opts))
	return e
}

// Current returns the Engine's serving graph and topic model — the
// coordinates new Problems must be built against. After an ApplyDelta
// these are the swapped-in generation; Problems built on the previous
// generation remain solvable until the next swap.
func (e *Engine) Current() (*graph.Graph, *topic.Model) {
	sn := e.cur.Load()
	return sn.graph, sn.model
}

// Generation returns the serving graph generation: 0 until the first
// ApplyDelta, then monotonically increasing.
func (e *Engine) Generation() uint64 { return e.cur.Load().graph.Generation() }

// Workers returns the Engine's resolved sampling-worker count.
func (e *Engine) Workers() int { return e.cur.Load().pool.Workers() }

// SamplerMemoryBytes returns the high-water scratch footprint of the
// current generation's sampling pool, repair-only scratch included —
// O(max(Workers, GOMAXPROCS)·n) worst case.
func (e *Engine) SamplerMemoryBytes() int64 {
	return e.cur.Load().pool.MemoryFootprint()
}

// CachedUniverses returns the number of RR-set universes currently held
// by the current generation's cross-solve cache (grown by ShareSamples
// solves, carried across ApplyDelta swaps while unlocked).
func (e *Engine) CachedUniverses() int {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.universes)
}

// CachedUniverseBytes returns the heap footprint of the current
// generation's universe cache, each entry's KPT sets included (as of
// each universe's last completed growth — safe to call while solves are
// in flight). Universes only grow; call Reset to release them.
func (e *Engine) CachedUniverseBytes() int64 {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	var total int64
	for _, sg := range sn.universes {
		total += sg.bytes.Load()
	}
	return total
}

// Reset drops the current generation's memoized edge probabilities,
// cached RR-set universes and recycled exclusive universes (sessions
// already holding a cache entry keep it until they finish, and a solve
// in flight refills the free list when it ends). The scratch pool is
// retained. Use it to bound memory on an Engine that has served many
// distinct seeds or topic mixes.
func (e *Engine) Reset() {
	sn := e.cur.Load()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.free = nil
	sn.probs = map[string]adProbs{}
	sn.universes = map[universeKey]*sharedGroup{}
}

// lockSharedGroup checks out (creating on miss) the snapshot's cached
// universe for the key and returns it with its lock held; a waiter
// queued behind a long-running same-key session abandons with the
// context's error instead of parking past its deadline. Deadlock-free
// under concurrent solves: a solve acquires entries in first-occurrence
// ad order, and because stream seeds are drawn positionally from the
// solve seed, two solves sharing any two entries necessarily assign
// them the same positions — hence acquire them in the same order.
func (e *Engine) lockSharedGroup(ctx context.Context, sn *snapshot, key universeKey, probs rrset.SampleProbs, gamma topic.Distribution) (*sharedGroup, error) {
	first := true
	for {
		sn.mu.Lock()
		sg, ok := sn.universes[key]
		if !ok {
			sg = &sharedGroup{
				lock:  make(chan struct{}, 1),
				u:     rrset.NewUniverse(sn.graph.NumNodes()),
				src:   sn.pool.NewStream(probs, key.seed),
				kptU:  rrset.NewUniverse(sn.graph.NumNodes()),
				gamma: append(topic.Distribution(nil), gamma...),
			}
			sn.universes[key] = sg
		}
		sn.mu.Unlock()
		if first {
			first = false
			if ok {
				e.universeHits.Add(1)
			} else {
				e.universeMisses.Add(1)
			}
		}
		select {
		case sg.lock <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !sg.dead {
			return sg, nil
		}
		<-sg.lock // carried away while we waited: retry against a fresh entry
	}
}

// snapshotFor resolves the snapshot a problem was built against: the
// current generation, or the immediately previous one (a session that
// built its problem just before a swap still completes on its own
// snapshot). Anything older — or a foreign graph/model — rejects with
// ErrInvalidProblem.
func (e *Engine) snapshotFor(p *Problem) (*snapshot, error) {
	if sn := e.cur.Load(); sn != nil && p.Graph == sn.graph && p.Model == sn.model {
		return sn, nil
	}
	if sn := e.prev.Load(); sn != nil && p.Graph == sn.graph && p.Model == sn.model {
		return sn, nil
	}
	return nil, fmt.Errorf("core: %w: problem built on a different graph/model than this Engine (or a generation more than one swap old)", ErrInvalidProblem)
}

// Solve runs one allocation session on the Engine. It validates the
// problem and options (wrapping failures in ErrInvalidProblem), honors
// ctx cancellation inside both the sampling and the greedy loops
// (returning an error chain matching ErrCanceled and the context's own
// error, alongside Stats for the partial work), and audits the final
// allocation (ErrInfeasible). Concurrent Solve calls on one Engine are
// race-free; for a fixed Options.Seed the allocation is bit-identical
// across runs and across Engines, at any Workers.
//
// The session pins the snapshot its problem resolves to (Stats records
// the generation) and completes on it even if ApplyDelta swaps in a new
// generation mid-solve.
func (e *Engine) Solve(ctx context.Context, p *Problem, opt Options) (*Allocation, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.solvesStarted.Add(1)
	opt = opt.withDefaults()
	sn, err := e.validateSolve(p, opt)
	if err != nil {
		e.solvesFailed.Add(1)
		return nil, nil, err
	}
	// validateSolve already proved the mode is registered.
	info, _ := ModeInfo(opt.Mode)
	start := time.Now()
	s := &solver{
		eng:      e,
		snap:     sn,
		ctx:      ctx,
		p:        p,
		opt:      opt,
		info:     info,
		n:        p.Graph.NumNodes(),
		m:        p.Graph.NumEdges(),
		assigned: make([]bool, p.Graph.NumNodes()),
		stats: &Stats{
			Mode:          opt.Mode,
			Generation:    sn.graph.Generation(),
			Theta:         make([]int, p.NumAds()),
			Kpt:           make([]float64, p.NumAds()),
			SeedCounts:    make([]int, p.NumAds()),
			SampleWorkers: sn.pool.Workers(),
		},
	}
	// Deferred so that even a panic escaping the solve (e.g. from a user
	// Progress hook) cannot leak a cache entry's mutex. An entry a failed
	// session grew stays cached: its streams resume where its universes
	// end, so the next session continues the same sample.
	defer s.releaseGroups()
	alloc, err := s.solve()
	s.snapshotStats()
	s.recycleGroups()
	s.stats.Duration = time.Since(start)
	e.rrSetsSampled.Add(s.stats.TotalRRSets)
	if err != nil {
		e.solvesFailed.Add(1)
		return nil, s.stats, err
	}
	// Admission-time feasibility was enforced with current estimates;
	// growth-time revisions can shift payments within the ±ε estimation
	// accuracy, so validate with ε slack.
	if err := alloc.ValidateSlack(p, opt.Epsilon); err != nil {
		e.solvesFailed.Add(1)
		return nil, s.stats, fmt.Errorf("core: %w: %w", ErrInfeasible, err)
	}
	e.solvesCompleted.Add(1)
	return alloc, s.stats, nil
}

// validateSolve checks everything the solve path used to assume (or
// panic on): a well-formed problem built on this Engine's graph and
// model, options inside their domain, and consistent auxiliary inputs.
// On success it returns the snapshot the session will run on.
func (e *Engine) validateSolve(p *Problem, opt Options) (*snapshot, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrInvalidProblem, err)
	}
	sn, err := e.snapshotFor(p)
	if err != nil {
		return nil, err
	}
	info, ok := ModeInfo(opt.Mode)
	if !ok {
		return nil, fmt.Errorf("core: %w: unregistered mode %d (registered algorithms: %v)",
			ErrInvalidProblem, int(opt.Mode), ModeNames())
	}
	if opt.Epsilon <= 0 || opt.Ell <= 0 {
		return nil, fmt.Errorf("core: %w: epsilon and ell must be positive (got ε=%v, ℓ=%v)",
			ErrInvalidProblem, opt.Epsilon, opt.Ell)
	}
	if opt.Window < 0 || opt.MaxThetaPerAd < 1 {
		return nil, fmt.Errorf("core: %w: window must be ≥ 0 and maxTheta ≥ 1", ErrInvalidProblem)
	}
	if info.NeedsPRScores {
		if len(opt.PRScores) != p.NumAds() {
			return nil, fmt.Errorf("core: %w: %s needs PRScores for all %d ads", ErrInvalidProblem, info.Display, p.NumAds())
		}
		for i, scores := range opt.PRScores {
			if int64(len(scores)) != int64(p.Graph.NumNodes()) {
				return nil, fmt.Errorf("core: %w: PRScores[%d] covers %d nodes, graph has %d",
					ErrInvalidProblem, i, len(scores), p.Graph.NumNodes())
			}
		}
	}
	return sn, nil
}

// Evaluate scores an allocation with fresh Monte-Carlo simulation (runs
// cascades per ad on up to workers goroutines), using the pinned
// snapshot's memoized edge probabilities. Every run draws from its own
// seed (cascade.Simulator.Spread), so the result depends on seed, never
// on workers. Cancellation is honored between advertisers.
func (e *Engine) Evaluate(ctx context.Context, p *Problem, a *Allocation, runs, workers int, seed uint64) (*Evaluation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrInvalidProblem, err)
	}
	sn, err := e.snapshotFor(p)
	if err != nil {
		return nil, err
	}
	if a == nil || len(a.Seeds) != p.NumAds() {
		return nil, fmt.Errorf("core: %w: allocation does not match problem", ErrInvalidProblem)
	}
	// Seed ids index visited arrays and incentive tables inside the
	// cascade workers; an out-of-range id must fail here, not panic in a
	// goroutine (allocations can arrive from outside Solve — e.g. the
	// serving layer's /v1/evaluate).
	for i, seeds := range a.Seeds {
		for _, u := range seeds {
			if u < 0 || u >= p.Graph.NumNodes() {
				return nil, fmt.Errorf("core: %w: ad %d seed node %d out of range [0, %d)",
					ErrInvalidProblem, i, u, p.Graph.NumNodes())
			}
		}
	}
	e.evaluations.Add(1)
	spread := make([]float64, p.NumAds())
	rng := xrand.New(seed)
	for i := range spread {
		// A splitmix step per ad, not SlotSeed(seed, i): nested SlotSeeds
		// are symmetric, so ad i's run j would replay ad j's run i.
		adSeed := rng.Split().Uint64()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: evaluation %w: %w", ErrCanceled, err)
		}
		if len(a.Seeds[i]) > 0 {
			sim := cascade.NewSimulator(p.Graph, sn.edgeProbsFor(p.Ads[i].Gamma).canonical)
			spread[i] = sim.Spread(a.Seeds[i], runs, workers, adSeed)
		}
	}
	return newEvaluation(p, a, spread), nil
}

// ProgressKind labels a ProgressEvent.
type ProgressKind int

const (
	// ProgressSampleGrowth reports that an advertiser's RR sample was
	// enlarged (a θ growth event, Algorithm 3).
	ProgressSampleGrowth ProgressKind = iota
	// ProgressSeedAssigned reports one committed (node, advertiser) pair —
	// consecutive events trace the engine's revenue curve.
	ProgressSeedAssigned
)

func (k ProgressKind) String() string {
	switch k {
	case ProgressSampleGrowth:
		return "sample-growth"
	case ProgressSeedAssigned:
		return "seed-assigned"
	}
	return fmt.Sprintf("ProgressKind(%d)", int(k))
}

// ProgressEvent is one solver progress notification, delivered
// synchronously on the solving goroutine to Options.Progress (keep the
// hook cheap, or hand off to a channel for server-side streaming).
type ProgressEvent struct {
	Kind ProgressKind
	// Ad is the advertiser index the event concerns.
	Ad int
	// Node is the newly assigned seed for ProgressSeedAssigned, -1
	// otherwise.
	Node int32
	// Theta is the advertiser's current RR sample size.
	Theta int
	// Seeds is the advertiser's current seed count.
	Seeds int
	// TotalRevenue is the engine's running estimate of π(S⃗) across all
	// advertisers — consecutive events trace the revenue curve.
	TotalRevenue float64
}
