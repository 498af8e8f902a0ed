package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/rrset"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// Mode selects the candidate-selection rule of the scalable engine.
type Mode int

const (
	// ModeCostAgnostic is TI-CARM: candidates by maximum marginal
	// coverage (Algorithm 4), cross-ad choice by maximum marginal revenue.
	ModeCostAgnostic Mode = iota
	// ModeCostSensitive is TI-CSRM: candidates by maximum coverage-to-cost
	// ratio (Algorithm 5), cross-ad choice by maximum marginal revenue per
	// marginal payment. Options.Window restricts the candidate search to
	// the w nodes with the highest marginal coverage (Figure 4).
	ModeCostSensitive
	// ModePRGreedy is the PageRank-GR baseline: candidates by ad-specific
	// PageRank order, cross-ad choice by maximum marginal revenue.
	ModePRGreedy
	// ModePRRoundRobin is the PageRank-RR baseline: candidates by
	// ad-specific PageRank order, ads served in round-robin order.
	ModePRRoundRobin
	// ModeOnePassCostAgnostic is HC-CARM, modeled on Han & Cui et al.
	// (arXiv:2107.04997): TI-CARM's selection rule, but the latent
	// seed-set size s̃ is estimated once up front from the initial
	// L(1, ε) sample and full budget, the RR sample is extended to
	// L(s̃, ε) in a single step, and the greedy pass runs with no
	// further growth events or heap rebuilds.
	ModeOnePassCostAgnostic
	// ModeOnePassCostSensitive is HC-CSRM: the one-pass scheme of
	// ModeOnePassCostAgnostic with TI-CSRM's cost-sensitive selection
	// rule (coverage-to-cost candidates, revenue-per-payment across
	// ads). Options.Window applies as in TI-CSRM.
	ModeOnePassCostSensitive
)

// String returns the registry display label ("TI-CSRM", "HC-CARM", ...).
func (m Mode) String() string {
	if info, ok := ModeInfo(m); ok {
		return info.Display
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures one solve session.
type Options struct {
	Mode Mode
	// Epsilon is the estimation accuracy ε of Eq. 8/9 (paper: 0.1 for
	// quality runs, 0.3 for scalability runs). Default 0.1.
	Epsilon float64
	// Ell is the confidence exponent ℓ (failure probability n^−ℓ).
	// Default 1.
	Ell float64
	// Window is TI-CSRM's window size w: the candidate search per ad is
	// restricted to the w unassigned nodes with the highest marginal
	// coverage. 0 means the full window (w = n). TI-CARM corresponds to
	// w = 1, as the paper notes.
	Window int
	// Seed drives all sampling; fixed seeds give deterministic runs.
	Seed uint64
	// MaxThetaPerAd caps the RR sets sampled per advertiser, bounding
	// memory on small machines. 0 means the default (3,000,000).
	MaxThetaPerAd int
	// PRScores supplies per-ad node scores for the PageRank modes
	// (PRScores[i][u] ranks node u for ad i).
	PRScores [][]float64
	// ShareSamples makes ads with identical topic distributions share one
	// RR-set universe (their RR-set distributions coincide), keeping only
	// per-ad coverage state private. This addresses the paper's
	// future-work item (i) — memory efficiency of TI-CSRM — and is exact:
	// the shared sets are i.i.d. draws from each sharing ad's RR
	// distribution, so every estimate retains its Eq. 9 guarantee (the
	// shared θ is the maximum of the members' requirements).
	//
	// On a long-lived Engine, shared universes are additionally cached
	// across solves keyed on (normalized gammas, stream seed), so
	// re-solving the same instance reuses the samples already drawn;
	// prefix views keep cache hits bit-identical to a cold run.
	ShareSamples bool
	// ForbiddenNodes are globally unavailable as seeds for every ad (used
	// by the adaptive setting for already-committed seeds).
	ForbiddenNodes []int32
	// ExcludedNodes[i] lists nodes unavailable for ad i only (used by the
	// adaptive setting for users already engaged with ad i). nil means no
	// per-ad exclusions.
	ExcludedNodes [][]int32
	// Workers is the number of RR-sampling scratch slots (and the bound
	// on concurrently sampling goroutines) for the whole run. 0 and 1
	// both select the single-worker path, which is bit-identical to the
	// historical sequential sampler under the same Seed; larger values
	// parallelize sampling while keeping runs deterministic for a fixed
	// (Seed, Workers, SampleBatch).
	//
	// Consulted only by the legacy one-shot entry points (Run, TICARM,
	// TICSRM, ...), which size their throwaway Engine from it. A solve on
	// a caller-constructed Engine always samples at the Engine's own
	// Workers/SampleBatch — the pool is the session's shared resource —
	// and Stats.SampleWorkers reports the value actually used.
	//
	// Memory note: every advertiser's sampling streams share one
	// engine-wide rrset.Pool, so worker scratch (a visited array of 8n
	// bytes per slot, lazily built) is bounded by
	// ~Workers·8n bytes regardless of the number of ads or concurrent
	// solves, and is reported in Stats.SamplerMemoryBytes. The slot count
	// also caps concurrently sampling goroutines for the whole Engine:
	// with Workers=1 even the per-ad initialization goroutines sample one
	// at a time (results stay bit-identical to the sequential engine), so
	// raise Workers to parallelize sampling across ads as well as within
	// one.
	Workers int
	// SampleBatch is the parallel sampler's per-worker batch size
	// (0 = rrset.DefaultBatchSize). Only meaningful with Workers > 1;
	// like Workers, consulted only by the legacy one-shot entry points.
	SampleBatch int
	// Progress, when non-nil, receives solver progress events — per-ad θ
	// growth and committed seeds with the running revenue estimate —
	// synchronously on the solving goroutine. Keep the hook cheap (hand
	// off to a channel for server-side streaming).
	Progress func(ProgressEvent)
}

// DefaultEpsilon is the estimation accuracy used when Options.Epsilon
// is zero. Callers that build cache keys from Options (internal/serve)
// normalize through it so an omitted ε and an explicit default agree.
const DefaultEpsilon = 0.1

func (o *Options) withDefaults() Options {
	out := *o
	if out.Epsilon == 0 {
		out.Epsilon = DefaultEpsilon
	}
	if out.Ell == 0 {
		out.Ell = 1
	}
	if out.MaxThetaPerAd == 0 {
		out.MaxThetaPerAd = 3_000_000
	}
	if out.Workers <= 0 {
		// Unlike rrset.SampleOptions (whose zero value means NumCPU), the
		// engine's zero value stays single-worker so that pre-existing
		// seed-pinned results are reproduced exactly by default.
		out.Workers = 1
	}
	return out
}

// Stats reports the engine's work for the scalability experiments
// (Figure 5, Table 3). A canceled solve returns its Stats alongside the
// error, describing the partial work done before the abort.
type Stats struct {
	Mode Mode
	// Generation is the graph generation the session ran on — the
	// snapshot pinned at Solve entry, unchanged even if an ApplyDelta
	// swapped the Engine mid-session.
	Generation   uint64
	Duration     time.Duration
	Theta        []int     // final RR sample size per ad
	Kpt          []float64 // final KPT estimate per ad
	SeedCounts   []int
	GrowthEvents int
	PrunedPairs  int64
	TotalRRSets  int64
	// RRMemoryBytes is the final footprint of all RR-set stores
	// (collections, shared universes, per-ad views). Cached universes are
	// counted at their full (possibly pre-grown) size.
	RRMemoryBytes int64
	// SamplerMemoryBytes is the high-water scratch footprint of the
	// engine-wide sampling pool — Workers visited arrays,
	// O(Workers·n) regardless of the number of ads. Table 3's memory
	// columns report RRMemoryBytes + SamplerMemoryBytes.
	SamplerMemoryBytes int64
	SampleWorkers      int // RR-sampling scratch slots for the run (resolved)
	// ShareGroups is the number of distinct sample-sharing groups formed
	// under Options.ShareSamples (0 when sharing is off).
	ShareGroups int
	// Shards is the Engine's RR-shard count for the run (0 = the
	// unsharded path; see EngineOptions.Shards).
	Shards int
}

// TICARM runs the scalable cost-agnostic algorithm.
//
// Deprecated: construct an Engine once and use Engine.Solve with
// ModeCostAgnostic; this one-shot wrapper builds a throwaway Engine per
// call. Retained for bit-compatible historical runs.
func TICARM(p *Problem, opt Options) (*Allocation, *Stats, error) {
	opt.Mode = ModeCostAgnostic
	return Run(p, opt)
}

// TICSRM runs the scalable cost-sensitive algorithm.
//
// Deprecated: construct an Engine once and use Engine.Solve with
// ModeCostSensitive; this one-shot wrapper builds a throwaway Engine per
// call. Retained for bit-compatible historical runs.
func TICSRM(p *Problem, opt Options) (*Allocation, *Stats, error) {
	opt.Mode = ModeCostSensitive
	return Run(p, opt)
}

// Run executes one solve in the configured mode on a throwaway Engine
// sized from the options — the legacy one-shot entry point, bit-for-bit
// compatible with the historical engine under a fixed
// (Seed, Workers, SampleBatch).
//
// Deprecated: use Engine.Solve on a long-lived Engine (NewEngine); Run
// rebuilds scratch pools and edge-probability caches on every call.
func Run(p *Problem, opt Options) (*Allocation, *Stats, error) {
	return RunWith(context.Background(), nil, p, opt)
}

// RunWith executes one solve on the given Engine, constructing a
// throwaway Engine from the options when eng is nil. It is the shared
// dispatch used by the legacy wrappers, the baselines and the experiment
// harness.
func RunWith(ctx context.Context, eng *Engine, p *Problem, opt Options) (*Allocation, *Stats, error) {
	if eng == nil {
		o := opt.withDefaults()
		eng = NewEngine(p.Graph, p.Model, EngineOptions{
			Workers:     o.Workers,
			SampleBatch: o.SampleBatch,
		})
	}
	return eng.Solve(ctx, p, opt)
}

// adGroup is a set of advertisers with identical topic distributions
// sharing one RR-set universe (Options.ShareSamples). universe and
// sampler may come from the Engine's cross-solve cache; vsize is this
// session's virtual universe size — the running maximum of member θ
// requirements — so that views over a pre-grown cached universe replay
// exactly the prefix a cold run would have seen.
type adGroup struct {
	universe *rrset.Universe
	sampler  *rrset.Stream
	// shg replaces universe/sampler when the Engine runs sharded
	// (EngineOptions.Shards > 0): draws are split round-robin across S
	// per-shard universes with independent deterministic streams, and
	// member views merge the per-shard counts. In sharded sessions
	// without ShareSamples every ad gets a private singleton adGroup (sg
	// stays nil), so both sharing modes route through the same machinery.
	shg    *shard.Group
	kptSrc *rrset.Stream
	// sg is the Engine cache entry backing universe/sampler; its cached
	// byte count is refreshed after every growth this session performs.
	// nil for session-private (singleton sharded) groups.
	sg      *sharedGroup
	kpt     float64
	kptAtS  int
	vsize   int
	members []*adState
}

// size returns the group's stored set count across storage layouts.
func (g *adGroup) size() int {
	if g.shg != nil {
		return g.shg.Size()
	}
	return g.universe.Size()
}

// footprint returns the group's RR storage bytes across storage layouts.
func (g *adGroup) footprint() int64 {
	if g.shg != nil {
		return g.shg.MemoryFootprint()
	}
	return g.universe.MemoryFootprint()
}

// newView builds a member's prefix coverage view over the group's
// universe(s), capped at limit sets.
func (g *adGroup) newView(limit int) prefixView {
	if g.shg != nil {
		return shard.NewViewPrefix(g.shg, limit)
	}
	return rrset.NewViewPrefix(g.universe, limit)
}

// prefixView is the coverage state a group member runs selection on:
// full rrset.CoverageState plus prefix extension after universe growth.
// Implemented by *rrset.View (unsharded) and *shard.MergedView (sharded,
// with provably equal counts and pick sequences).
type prefixView interface {
	rrset.CoverageState
	SyncTo(limit int) int
}

// growUniverse extends the group's (possibly cached) universe to the
// session's virtual size and refreshes the cache entry's byte count.
func (e *solver) growUniverse(g *adGroup) error {
	if g.size() >= g.vsize {
		return nil
	}
	var err error
	if g.shg != nil {
		err = g.shg.Grow(e.ctx, g.vsize)
	} else {
		err = g.universe.AddFromParallelCtx(e.ctx, g.sampler, g.vsize-g.universe.Size())
	}
	if g.sg != nil {
		g.sg.bytes.Store(g.footprint())
	}
	if err != nil {
		return e.canceled(err)
	}
	return nil
}

// adState is the engine's per-advertiser working state.
type adState struct {
	idx     int
	cpe     float64
	budget  float64
	coll    rrset.CoverageState
	excl    *rrset.Collection // non-nil iff exclusive unsharded (coll == excl)
	view    prefixView        // non-nil iff group member (coll == view)
	group   *adGroup          // non-nil iff group member (sharing or sharded)
	sampler *rrset.Stream     // exclusive unsharded mode only
	kptSrc  *rrset.Stream     // exclusive unsharded mode only
	heap    candHeap
	pruned  []bool // (node, ad) pairs removed from the ground set

	s      int // latent seed-set size estimate s̃_i
	theta  int
	kpt    float64
	kptAtS int

	seeds []int32
	pi    float64 // π_i(S_i) estimate: cpe · n · covered/θ
	cost  float64 // c_i(S_i)

	active bool
	// Cached candidate from the last selection; node < 0 when invalid.
	cand candidate
}

// candidate is one advertiser's proposed (node, gain) for the current
// round.
type candidate struct {
	node  int32
	mpi   float64 // π_i(u | S_i)
	mrho  float64 // ρ_i(u | S_i)
	ratio float64 // mpi / mrho
	valid bool
}

func (a *adState) payment() float64 { return a.pi + a.cost }

// solver is the state of one solve session: the problem, the resolved
// options, and the per-session working state, layered over the owning
// Engine's shared pool and caches.
type solver struct {
	eng *Engine
	// snap is the generation snapshot pinned at Solve entry; every
	// cache and pool access goes through it, never through the Engine's
	// (possibly newer) current snapshot.
	snap *snapshot
	ctx  context.Context
	p    *Problem
	opt  Options
	// info is the registry entry for opt.Mode (validated before the
	// session starts); candidate selection and growth dispatch on its
	// capability flags rather than on Mode values, so new modes compose
	// from flags instead of widening switches.
	info AlgorithmInfo
	n    int32
	m    int64
	// pool is the Engine-wide sampling scratch pool: every ad's sampler
	// and kptSrc stream — exclusive or shared — borrows its Workers
	// slots, so sampler memory is O(Workers·n) per Engine.
	pool   *rrset.Pool
	ads    []*adState
	groups []*adGroup // non-empty only with Options.ShareSamples
	// locked/lockedKeys are the Engine cache entries this session holds
	// (mutexes taken in first-occurrence ad order, released at the end of
	// the solve; evicted instead if the solve fails).
	locked     []*sharedGroup
	lockedKeys []universeKey
	assigned   []bool
	stats      *Stats
	// totalPi is the running Σ_i π_i estimate, maintained incrementally
	// by setPi so progress events report the revenue curve in O(1).
	totalPi float64
}

// canceled wraps a context error in the ErrCanceled sentinel.
func (e *solver) canceled(err error) error {
	return fmt.Errorf("core: %w: %w", ErrCanceled, err)
}

// releaseGroups unlocks the Engine cache entries held by this session.
func (e *solver) releaseGroups() {
	for _, sg := range e.locked {
		<-sg.lock
	}
	e.locked = nil
}

// setPi updates an advertiser's revenue estimate while keeping the
// session's running total incremental (progress events read it O(1)).
func (e *solver) setPi(ad *adState, pi float64) {
	e.totalPi += pi - ad.pi
	ad.pi = pi
}

// solve runs the session: initialization (KPT estimates and initial RR
// samples), the allocation loop, and the final allocation assembly.
func (e *solver) solve() (*Allocation, error) {
	for _, v := range e.opt.ForbiddenNodes {
		e.assigned[v] = true
	}
	rng := xrand.New(e.opt.Seed)
	if e.opt.ShareSamples {
		// Group advertisers by topic distribution; members of a group
		// draw from the same RR-set distribution and share a universe —
		// cached on the Engine across solves.
		byGamma := map[string]*adGroup{}
		for i := 0; i < e.p.NumAds(); i++ {
			key := gammaKey(e.p.Ads[i].Gamma)
			g, ok := byGamma[key]
			if !ok {
				probs := e.snap.edgeProbsFor(e.p.Ads[i].Gamma).sampling
				// Seeds drawn in the same order the sequential code called
				// rng.Split(), so Workers<=1 reproduces it bit for bit.
				sSeed, kSeed := rng.Uint64(), rng.Uint64()
				uk := universeKey{gamma: key, seed: sSeed, shards: e.snap.shards}
				sg, err := e.eng.lockSharedGroup(e.ctx, e.snap, uk, probs, e.p.Ads[i].Gamma)
				if err != nil {
					return nil, e.canceled(err)
				}
				e.locked = append(e.locked, sg)
				e.lockedKeys = append(e.lockedKeys, uk)
				g = &adGroup{
					universe: sg.universe,
					sampler:  sg.sampler,
					shg:      sg.shg,
					sg:       sg,
					// The KPT stream replays from scratch every session, so
					// refresh sequences depend only on this session's seed —
					// exactly the cold-run behavior.
					kptSrc: e.pool.NewStream(probs, kSeed),
					kptAtS: 1,
				}
				g.kpt, err = rrset.KptEstimateParallelCtx(e.ctx, g.kptSrc, e.m, int64(e.n), 1, e.opt.Ell)
				if err != nil {
					return nil, e.canceled(err)
				}
				byGamma[key] = g
				e.groups = append(e.groups, g)
			}
			ad, err := e.initSharedAd(i, g)
			if err != nil {
				return nil, err
			}
			e.ads = append(e.ads, ad)
		}
	} else {
		// Exclusive-sample initialization (KPT estimation plus the initial
		// θ-sized RR sample per ad) dominates startup cost and touches no
		// shared mutable state, so it runs concurrently. RNG streams are
		// pre-split in ad order, keeping runs deterministic regardless of
		// goroutine scheduling.
		e.ads = make([]*adState, e.p.NumAds())
		errs := make([]error, e.p.NumAds())
		rngs := make([]*xrand.RNG, e.p.NumAds())
		for i := range rngs {
			rngs[i] = rng.Split()
		}
		var wg sync.WaitGroup
		for i := range e.ads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e.ads[i], errs[i] = e.initAd(i, rngs[i])
			}(i)
		}
		wg.Wait()
		// Sharded exclusive ads carry their storage in private singleton
		// groups; register them (even for a failed init) so Stats and the
		// growth machinery see them uniformly.
		for _, ad := range e.ads {
			if ad != nil && ad.group != nil {
				e.groups = append(e.groups, ad.group)
			}
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var err error
	if e.info.OnePass {
		// Han–Cui one-shot sample sizing: fix every ad's s̃ and final θ
		// now, before the first seed, so the greedy pass below runs
		// without growth events or heap rebuilds.
		err = e.presizeOnePass()
	}
	if err == nil {
		if e.info.RoundRobin {
			err = e.runRoundRobin()
		} else {
			err = e.runGreedy()
		}
	}
	if err != nil {
		return nil, err
	}

	alloc := NewAllocation(e.p.NumAds())
	for i, ad := range e.ads {
		alloc.Seeds[i] = ad.seeds
		alloc.Revenue[i] = ad.pi
		alloc.SeedCost[i] = ad.cost
		alloc.Payment[i] = ad.payment()
	}
	return alloc, nil
}

// snapshotStats fills the session's Stats from whatever state exists —
// tolerant of a partially initialized session, so a canceled solve still
// reports its partial work.
func (e *solver) snapshotStats() {
	for i, ad := range e.ads {
		if ad == nil {
			continue
		}
		e.stats.Theta[i] = ad.theta
		e.stats.Kpt[i] = ad.kpt
		e.stats.SeedCounts[i] = len(ad.seeds)
		if ad.coll != nil {
			e.stats.RRMemoryBytes += ad.coll.MemoryFootprint()
			if ad.group == nil {
				e.stats.TotalRRSets += int64(ad.coll.Size())
			}
		}
	}
	for _, g := range e.groups {
		e.stats.RRMemoryBytes += g.footprint()
		// This session drew (or replayed) exactly its virtual universe
		// size; a cached universe's pre-grown tail is not this session's
		// work. A canceled session can hold vsize > Size() — report only
		// what exists.
		drawn := g.vsize
		if s := g.size(); s < drawn {
			drawn = s
		}
		e.stats.TotalRRSets += int64(drawn)
	}
	for _, p := range e.snap.pools {
		e.stats.SamplerMemoryBytes += p.MemoryFootprint()
	}
	if e.opt.ShareSamples {
		// Singleton sharded-exclusive groups are storage plumbing, not
		// sharing: ShareGroups keeps meaning "distinct gamma groups".
		e.stats.ShareGroups = len(e.groups)
	}
}

// emitProgress delivers one progress event to the session's hook.
func (e *solver) emitProgress(kind ProgressKind, ad *adState, node int32) {
	if e.opt.Progress == nil {
		return
	}
	e.opt.Progress(ProgressEvent{
		Kind:         kind,
		Ad:           ad.idx,
		Node:         node,
		Theta:        ad.theta,
		Seeds:        len(ad.seeds),
		TotalRevenue: e.totalPi,
	})
}

// initAd sets up one advertiser with exclusive storage: ad-specific
// probabilities, the initial KPT estimate at s=1, the initial RR sample
// of size L(1, ε), and the candidate heap (Algorithm 2 lines 1–4).
func (e *solver) initAd(i int, rng *xrand.RNG) (*adState, error) {
	probs := e.snap.edgeProbsFor(e.p.Ads[i].Gamma).sampling
	// Seeds drawn in the same order the sequential code called rng.Split(),
	// so Workers<=1 reproduces it bit for bit.
	sSeed, kSeed := rng.Uint64(), rng.Uint64()
	if e.snap.shards > 0 {
		return e.initShardedAd(i, probs, sSeed, kSeed)
	}
	coll := rrset.NewCollection(e.n)
	ad := &adState{
		idx:     i,
		cpe:     e.p.Ads[i].CPE,
		budget:  e.p.Ads[i].Budget,
		coll:    coll,
		excl:    coll,
		sampler: e.pool.NewStream(probs, sSeed),
		kptSrc:  e.pool.NewStream(probs, kSeed),
		pruned:  make([]bool, e.n),
		s:       1,
		kptAtS:  1,
		active:  true,
	}
	var err error
	ad.kpt, err = rrset.KptEstimateParallelCtx(e.ctx, ad.kptSrc, e.m, int64(e.n), 1, e.opt.Ell)
	if err != nil {
		return ad, e.canceled(err)
	}
	ad.theta = e.thetaFor(ad, 1)
	if err := coll.AddFromParallelCtx(e.ctx, ad.sampler, ad.theta); err != nil {
		return ad, e.canceled(err)
	}
	e.applyExclusions(ad)
	e.rebuildHeap(ad)
	return ad, nil
}

// initShardedAd sets up one exclusive advertiser on a sharded Engine: a
// private singleton adGroup whose shard.Group plays the Collection's
// role, with a merged view as the coverage state. The seed layout
// matches the unsharded exclusive path draw for draw (sSeed feeds the
// group's shard streams — shard 0's stream seed IS sSeed, so Shards=1
// replays the exact unsharded sample sequence), and the group is never
// cached: exclusive samples die with the session.
func (e *solver) initShardedAd(i int, probs rrset.SampleProbs, sSeed, kSeed uint64) (*adState, error) {
	g := &adGroup{
		shg:    shard.NewGroup(e.n, e.snap.pools, probs, sSeed),
		kptSrc: e.pool.NewStream(probs, kSeed),
		kptAtS: 1,
	}
	ad := &adState{
		idx:    i,
		cpe:    e.p.Ads[i].CPE,
		budget: e.p.Ads[i].Budget,
		group:  g,
		pruned: make([]bool, e.n),
		s:      1,
		kptAtS: 1,
		active: true,
	}
	var err error
	g.kpt, err = rrset.KptEstimateParallelCtx(e.ctx, g.kptSrc, e.m, int64(e.n), 1, e.opt.Ell)
	if err != nil {
		return ad, e.canceled(err)
	}
	ad.kpt = g.kpt
	g.vsize = e.thetaFor(ad, 1)
	if err := e.growUniverse(g); err != nil {
		return ad, err
	}
	ad.view = g.newView(g.vsize)
	ad.coll = ad.view
	ad.theta = ad.view.Size()
	g.members = append(g.members, ad)
	e.applyExclusions(ad)
	e.rebuildHeap(ad)
	return ad, nil
}

// applyExclusions prunes the per-ad excluded nodes from the advertiser's
// ground set before the first candidate heap is built.
func (e *solver) applyExclusions(ad *adState) {
	if e.opt.ExcludedNodes == nil {
		return
	}
	for _, v := range e.opt.ExcludedNodes[ad.idx] {
		ad.pruned[v] = true
	}
}

// initSharedAd sets up one advertiser as a member of a sample-sharing
// group: the group's virtual universe size is extended to the member's
// L(1, ε) requirement (growing the cached universe only when it is
// actually smaller) and the member receives a private prefix view over
// it.
func (e *solver) initSharedAd(i int, g *adGroup) (*adState, error) {
	ad := &adState{
		idx:    i,
		cpe:    e.p.Ads[i].CPE,
		budget: e.p.Ads[i].Budget,
		group:  g,
		pruned: make([]bool, e.n),
		s:      1,
		kptAtS: 1,
		kpt:    g.kpt,
		active: true,
	}
	if need := e.thetaFor(ad, 1); need > g.vsize {
		g.vsize = need
	}
	if err := e.growUniverse(g); err != nil {
		return ad, err
	}
	ad.view = g.newView(g.vsize)
	ad.coll = ad.view
	ad.theta = ad.view.Size()
	g.members = append(g.members, ad)
	e.applyExclusions(ad)
	e.rebuildHeap(ad)
	return ad, nil
}

// gammaKey builds the ShareSamples grouping key for a topic distribution.
// Keying on normalized math.Float64bits — rather than a formatted string —
// guarantees that numerically identical distributions always share one
// RR-set universe: -0.0 and 0.0 produce identical edge probabilities (a
// zero topic weight contributes nothing to Eq. 1) yet format differently,
// and any NaN is mapped to one canonical bit pattern so NaN ≠ NaN
// semantics cannot split a group.
func gammaKey(gamma []float64) string {
	nanBits := math.Float64bits(math.NaN())
	buf := make([]byte, 8*len(gamma))
	for i, x := range gamma {
		bits := math.Float64bits(x)
		switch {
		case x == 0: // collapses -0.0 onto 0.0
			bits = 0
		case math.IsNaN(x):
			bits = nanBits
		}
		binary.LittleEndian.PutUint64(buf[8*i:], bits)
	}
	return string(buf)
}

// GammaKey returns the canonical byte-string key of a topic distribution
// — the gammaKey normalization that ShareSamples grouping and the
// Engine's probability/universe caches dispatch on (Float64bits with
// -0.0 collapsed onto 0.0 and NaN canonicalized). Servers embedding the
// Engine compose result-cache keys from it so that cache identity
// matches solve identity exactly: two requests whose gammas compare
// equal under this key draw bit-identical RR samples for the same seed.
func GammaKey(gamma []float64) string { return gammaKey(gamma) }

// thetaFor computes the target sample size for seed-set size s, capped by
// MaxThetaPerAd.
func (e *solver) thetaFor(ad *adState, s int) int {
	t := rrset.Threshold(int64(e.n), s, e.opt.Epsilon, e.opt.Ell, ad.kpt)
	if t > float64(e.opt.MaxThetaPerAd) {
		return e.opt.MaxThetaPerAd
	}
	if t < 1 {
		return 1
	}
	return int(math.Ceil(t))
}

// heapKey computes the selection key of a node from the mode's registry
// capability flags. The mode is validated before the session starts.
func (e *solver) heapKey(ad *adState, v int32) float64 {
	switch {
	case e.info.NeedsPRScores:
		return e.opt.PRScores[ad.idx][v]
	case e.info.CostSensitive && e.opt.Window == 0:
		c := e.p.Incentives[ad.idx].Cost(v)
		if c < 1e-12 {
			c = 1e-12
		}
		return float64(ad.coll.CovCount(v)) / c
	default:
		// Cost-agnostic modes, and windowed cost-sensitive search (which
		// pops by coverage and picks the best ratio among the top w).
		return float64(ad.coll.CovCount(v))
	}
}

// keyStale reports whether a heap entry's key no longer matches the
// current state. PageRank keys are static and never stale.
func (e *solver) keyStale(ad *adState, ent candEntry) bool {
	if e.info.NeedsPRScores {
		return false
	}
	return ent.key != e.heapKey(ad, ent.node)
}

// rebuildHeap reconstructs the candidate heap from all unassigned,
// unpruned nodes — needed after sample growth, when coverage counts can
// increase and lazy revalidation would be unsound.
func (e *solver) rebuildHeap(ad *adState) {
	entries := make([]candEntry, 0, e.n)
	for v := int32(0); v < e.n; v++ {
		if e.assigned[v] || ad.pruned[v] {
			continue
		}
		entries = append(entries, candEntry{node: v, key: e.heapKey(ad, v)})
	}
	ad.heap.Build(entries)
	ad.cand.valid = false
}

// marginals computes (π_i(u|S_i), ρ_i(u|S_i), ratio) for node u.
func (e *solver) marginals(ad *adState, v int32) (mpi, mrho, ratio float64) {
	mpi = ad.cpe * float64(e.n) * float64(ad.coll.CovCount(v)) / float64(ad.theta)
	mrho = mpi + e.p.Incentives[ad.idx].Cost(v)
	den := mrho
	if den < 1e-12 {
		den = 1e-12
	}
	return mpi, mrho, mpi / den
}

// admissible applies the permanent ground-set pruning of Algorithm 1 line
// 12: a candidate is dropped forever if its addition would violate the
// advertiser's knapsack, or if its marginal coverage is zero (zero
// estimated marginal revenue — adding it cannot increase the objective).
func (e *solver) admissible(ad *adState, v int32) bool {
	if ad.coll.CovCount(v) == 0 {
		return false
	}
	_, mrho, _ := e.marginals(ad, v)
	return ad.payment()+mrho <= ad.budget
}

// selectCandidate finds the advertiser's current best feasible candidate
// (Algorithms 4 and 5), caching it until invalidated. Returns false when
// the advertiser's ground set is exhausted.
func (e *solver) selectCandidate(ad *adState) bool {
	if ad.cand.valid {
		return true
	}
	if e.info.CostSensitive && e.opt.Window > 0 {
		return e.selectWindowed(ad)
	}
	for ad.heap.Len() > 0 {
		top := ad.heap.Peek()
		if e.assigned[top.node] || ad.pruned[top.node] {
			ad.heap.Pop()
			continue
		}
		if e.keyStale(ad, top) {
			ent := ad.heap.Pop()
			ent.key = e.heapKey(ad, ent.node)
			ad.heap.Push(ent)
			continue
		}
		if !e.admissible(ad, top.node) {
			ad.heap.Pop()
			ad.pruned[top.node] = true
			e.stats.PrunedPairs++
			continue
		}
		mpi, mrho, ratio := e.marginals(ad, top.node)
		ad.cand = candidate{node: top.node, mpi: mpi, mrho: mrho, ratio: ratio, valid: true}
		return true
	}
	ad.active = false
	return false
}

// selectWindowed implements the window-restricted TI-CSRM search: pop up
// to w fresh candidates in marginal-coverage order, choose the best
// coverage-to-cost ratio among them, and push everything back.
func (e *solver) selectWindowed(ad *adState) bool {
	w := e.opt.Window
	buf := make([]candEntry, 0, w)
	bestIdx := -1
	var best candidate
	for len(buf) < w && ad.heap.Len() > 0 {
		top := ad.heap.Pop()
		if e.assigned[top.node] || ad.pruned[top.node] {
			continue
		}
		if e.keyStale(ad, top) {
			top.key = e.heapKey(ad, top.node)
			ad.heap.Push(top)
			continue
		}
		if !e.admissible(ad, top.node) {
			ad.pruned[top.node] = true
			e.stats.PrunedPairs++
			continue
		}
		mpi, mrho, ratio := e.marginals(ad, top.node)
		if bestIdx < 0 || ratio > best.ratio {
			bestIdx = len(buf)
			best = candidate{node: top.node, mpi: mpi, mrho: mrho, ratio: ratio, valid: true}
		}
		buf = append(buf, top)
	}
	for _, ent := range buf {
		ad.heap.Push(ent)
	}
	if bestIdx < 0 {
		if ad.heap.Len() == 0 {
			ad.active = false
		}
		return false
	}
	ad.cand = best
	return true
}

// assign commits the (node, advertiser) pair: Algorithm 2 lines 10–22.
func (e *solver) assign(ad *adState, c candidate) error {
	v := c.node
	ad.seeds = append(ad.seeds, v)
	e.assigned[v] = true
	ad.cost += e.p.Incentives[ad.idx].Cost(v)
	ad.coll.CoverBy(v) // remove covered RR sets (line 14)
	e.setPi(ad, ad.cpe*float64(e.n)*float64(ad.coll.NumCovered())/float64(ad.theta))
	ad.cand.valid = false
	// Other advertisers' cached candidates may reference the now-assigned
	// node.
	for _, other := range e.ads {
		if other.cand.valid && other.cand.node == v {
			other.cand.valid = false
		}
	}
	e.emitProgress(ProgressSeedAssigned, ad, v)
	// Latent seed-set size update (lines 17–22, Eq. 10). One-pass modes
	// sized s̃ up front and never grow mid-pass: past s̃ the sample stays
	// at L(s̃, ε) and later seeds keep the fixed-θ estimates.
	if len(ad.seeds) >= ad.s && !e.info.OnePass {
		return e.grow(ad)
	}
	return nil
}

// grow revises the latent seed-set size estimate and enlarges the RR
// sample to L(s̃, ε), re-attributing coverage of the new sets to the
// existing seeds in insertion order (Algorithm 3).
func (e *solver) grow(ad *adState) error {
	e.stats.GrowthEvents++
	remaining := ad.budget - ad.payment()
	if remaining < 0 {
		remaining = 0
	}
	_, maxCov := ad.coll.MaxCovCount(func(v int32) bool { return !e.assigned[v] })
	fMax := float64(maxCov) / float64(ad.theta)
	denom := e.p.Incentives[ad.idx].MaxCost() + ad.cpe*float64(e.n)*fMax
	delta := 0
	if denom > 0 {
		delta = int(math.Floor(remaining / denom))
	}
	if delta < 1 {
		// Conservative guard: keep θ ≥ L(|S_i|+1, ε) valid before the next
		// seed can be admitted (the paper's Eq. 10 can yield 0 while budget
		// remains).
		delta = 1
	}
	ad.s += delta
	if err := e.refreshKpt(ad); err != nil {
		return err
	}
	newTheta := e.thetaFor(ad, ad.s)

	if ad.group != nil {
		g := ad.group
		if newTheta > g.vsize {
			g.vsize = newTheta
		}
		if err := e.growUniverse(g); err != nil {
			return err
		}
		// Every member whose view lags the session's virtual universe size
		// absorbs the new sets (Algorithm 3 per member).
		for _, m := range g.members {
			if m.view.SyncTo(g.vsize) == 0 {
				continue
			}
			m.theta = m.view.Size()
			for _, v := range m.seeds {
				m.view.CoverBy(v)
			}
			e.setPi(m, m.cpe*float64(e.n)*float64(m.view.NumCovered())/float64(m.theta))
			e.rebuildHeap(m)
			e.emitProgress(ProgressSampleGrowth, m, -1)
		}
		return nil
	}

	if newTheta <= ad.theta {
		return nil
	}
	if err := ad.excl.AddFromParallelCtx(e.ctx, ad.sampler, newTheta-ad.theta); err != nil {
		return e.canceled(err)
	}
	ad.theta = newTheta
	// Algorithm 3: re-attribute coverage of the fresh sets to existing
	// seeds in insertion order, then refresh the revenue estimate.
	for _, v := range ad.seeds {
		ad.coll.CoverBy(v)
	}
	e.setPi(ad, ad.cpe*float64(e.n)*float64(ad.coll.NumCovered())/float64(ad.theta))
	// Coverage counts may have increased; lazy heap keys would be
	// underestimates, so rebuild.
	e.rebuildHeap(ad)
	e.emitProgress(ProgressSampleGrowth, ad, -1)
	return nil
}

// refreshKpt re-estimates the KPT lower bound when s has doubled since
// the last estimation; OPT_s is monotone in s, so the stale (smaller)
// value remains a valid lower bound in between. Shared groups keep one
// estimate for all members.
func (e *solver) refreshKpt(ad *adState) error {
	if ad.group != nil {
		g := ad.group
		if ad.s >= 2*g.kptAtS {
			kpt, err := rrset.KptEstimateParallelCtx(e.ctx, g.kptSrc, e.m, int64(e.n), ad.s, e.opt.Ell)
			if err != nil {
				return e.canceled(err)
			}
			if kpt > g.kpt {
				g.kpt = kpt
			}
			g.kptAtS = ad.s
		}
		if g.kpt > ad.kpt {
			ad.kpt = g.kpt
		}
		return nil
	}
	if ad.s >= 2*ad.kptAtS {
		kpt, err := rrset.KptEstimateParallelCtx(e.ctx, ad.kptSrc, e.m, int64(e.n), ad.s, e.opt.Ell)
		if err != nil {
			return e.canceled(err)
		}
		if kpt > ad.kpt {
			ad.kpt = kpt
		}
		ad.kptAtS = ad.s
	}
	return nil
}

// runGreedy is the main loop of Algorithm 2 (lines 5–22) for the CA, CS
// and PR-GR modes: every round each active advertiser proposes its best
// candidate, and the best feasible (node, advertiser) pair across
// advertisers is committed. Cancellation is checked once per committed
// pair; sampling inside growth events has its own batch-level checks.
func (e *solver) runGreedy() error {
	for {
		if err := e.ctx.Err(); err != nil {
			return e.canceled(err)
		}
		var bestAd *adState
		var best candidate
		for _, ad := range e.ads {
			if !ad.active {
				continue
			}
			if !e.selectCandidate(ad) {
				continue
			}
			c := ad.cand
			better := false
			if bestAd == nil {
				better = true
			} else if e.info.CostSensitive {
				better = c.ratio > best.ratio
			} else {
				better = c.mpi > best.mpi
			}
			if better {
				bestAd, best = ad, c
			}
		}
		if bestAd == nil {
			return nil // all advertisers exhausted (line 16)
		}
		if err := e.assign(bestAd, best); err != nil {
			return err
		}
	}
}

// runRoundRobin serves advertisers cyclically (PageRank-RR): each active
// advertiser immediately receives its top-PageRank feasible node.
func (e *solver) runRoundRobin() error {
	for {
		if err := e.ctx.Err(); err != nil {
			return e.canceled(err)
		}
		progressed := false
		for _, ad := range e.ads {
			if !ad.active {
				continue
			}
			if !e.selectCandidate(ad) {
				continue
			}
			if err := e.assign(ad, ad.cand); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			return nil
		}
	}
}
