package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/rrset"
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
	// RRMemoryBytes is the final footprint of all RR-set stores: the
	// stored bytes of every group's universe (lengths, not capacities,
	// so a recycled arena reports what a fresh one would) plus the
	// per-ad views. Cached groups are counted at their full
	// (possibly pre-grown) size.
	RRMemoryBytes int64
	// SamplerMemoryBytes is the high-water scratch footprint of the
	// engine-wide sampling pool — Workers visited arrays, O(Workers·n)
	// regardless of the number of ads. Table 3's
	// memory columns report RRMemoryBytes + SamplerMemoryBytes.
	SamplerMemoryBytes int64
	SampleWorkers      int // RR-sampling scratch slots for the run (resolved)
	// ShareGroups is the number of distinct sample-sharing groups formed
	// under Options.ShareSamples (0 when sharing is off).
	ShareGroups int
}

// adGroup is one RR sample and the advertisers selecting on it: a
// universe, the stream that fills it, its KPT stream and the members'
// prefix views. An exclusive ad is the single member of an uncached
// group; under Options.ShareSamples the ads with identical topic
// distributions share one group whose universe and stream come from the
// Engine's cross-solve cache. A shared group reads its KPT sets from
// the cache entry's KPT universe, from slot kptNext on, and its KPT
// stream only draws the slots that universe does not hold yet. vsize
// is this session's virtual sample size — the running maximum of member
// θ requirements — so that views over a pre-grown cached universe
// replay exactly the prefix a cold run would have seen.
type adGroup struct {
	u      *rrset.Universe
	src    *rrset.Stream
	kptSrc *rrset.Stream
	// sg is the Engine cache entry backing u and src; its cached byte
	// count is refreshed after every growth this session performs. nil
	// for exclusive (session-private) groups.
	sg      *sharedGroup
	kptNext int
	kpt     float64
	kptAtS  int
	vsize   int
	members []*adState
}

// growUniverse extends the group's (possibly cached) sample to the
// session's virtual size and refreshes the cache entry's byte count. A
// canceled growth leaves the universe an exact prefix of its stream, so
// a later growth continues the uncanceled sample.
func (e *solver) growUniverse(g *adGroup) error {
	var err error
	if need := g.vsize - g.u.Size(); need > 0 {
		err = g.u.AddFromParallelCtx(e.ctx, g.src, need)
	}
	if g.sg != nil {
		g.sg.bytes.Store(g.sg.footprint())
	}
	if err != nil {
		return e.canceled(err)
	}
	return nil
}

// adState is the engine's per-advertiser working state.
type adState struct {
	idx    int
	cpe    float64
	budget float64
	// view is the ad's coverage state: a prefix view over its group's
	// sample, synced forward on growth.
	view   *rrset.View
	group  *adGroup
	heap   candHeap
	pruned []bool // (node, ad) pairs removed from the ground set

	s     int // latent seed-set size estimate s̃_i
	theta int
	kpt   float64

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
	info   AlgorithmInfo
	n      int32
	m      int64
	ads    []*adState
	groups []*adGroup // one per distinct sample: per ad, or per shared gamma
	// locked are the Engine cache entries this session holds (mutexes
	// taken in first-occurrence ad order, released at the end of the
	// solve).
	locked   []*sharedGroup
	assigned []bool
	stats    *Stats
	// totalPi is the running Σ_i π_i estimate, maintained incrementally
	// by setPi so progress events report the revenue curve in O(1).
	totalPi float64
}

// canceled wraps a context error in the ErrCanceled sentinel.
func (e *solver) canceled(err error) error {
	return fmt.Errorf("core: %w: %w", ErrCanceled, err)
}

// recycleGroups hands the universes of the session's exclusive groups
// to its snapshot's free list. It runs once Stats are taken, when no
// view, goroutine or Stats field can touch them any more. Cached
// ShareSamples universes are never recycled, and a session without
// exclusive groups leaves the list alone.
func (e *solver) recycleGroups() {
	var free []*rrset.Universe
	for _, g := range e.groups {
		if g.sg == nil {
			free = append(free, g.u)
		}
	}
	if len(free) > 0 {
		e.eng.recycle(e.snap, free)
	}
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
	rng := xrand.New(e.opt.Seed)
	if e.opt.ShareSamples {
		// Group advertisers by topic distribution; members of a group
		// draw from the same RR-set distribution and share a sample —
		// cached on the Engine across solves.
		byGamma := map[string]*adGroup{}
		for i := 0; i < e.p.NumAds(); i++ {
			key := gammaKey(e.p.Ads[i].Gamma)
			g, ok := byGamma[key]
			if !ok {
				probs := e.snap.edgeProbsFor(e.p.Ads[i].Gamma).sampling
				// Stream seeds are drawn positionally from the solve seed,
				// in first-occurrence ad order.
				sSeed, kSeed := rng.Uint64(), rng.Uint64()
				uk := universeKey{gamma: key, seed: sSeed, kptSeed: kSeed}
				sg, err := e.eng.lockSharedGroup(e.ctx, e.snap, uk, probs, e.p.Ads[i].Gamma)
				if err != nil {
					return nil, e.canceled(err)
				}
				e.locked = append(e.locked, sg)
				g = &adGroup{u: sg.u, src: sg.src, sg: sg}
				// The KPT sample replays from slot 0 every session, so
				// refresh sequences depend only on this session's seed —
				// exactly the cold-run behavior.
				if err := e.estimateKpt(g, probs, kSeed); err != nil {
					return nil, err
				}
				byGamma[key] = g
				e.groups = append(e.groups, g)
			}
			ad, err := e.initAd(i, g)
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
		// goroutine scheduling. Each ad's sample is a private, uncached
		// group, built on the arenas of a universe an earlier solve
		// released when the snapshot has one (recycleGroups).
		e.ads = make([]*adState, e.p.NumAds())
		groups := make([]*adGroup, e.p.NumAds())
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
				probs := e.snap.edgeProbsFor(e.p.Ads[i].Gamma).sampling
				sSeed, kSeed := rngs[i].Uint64(), rngs[i].Uint64()
				g := &adGroup{u: e.snap.exclusiveUniverse(), src: e.snap.pool.NewStream(probs, sSeed)}
				groups[i] = g
				if errs[i] = e.estimateKpt(g, probs, kSeed); errs[i] == nil {
					e.ads[i], errs[i] = e.initAd(i, g)
				}
			}(i)
		}
		wg.Wait()
		// Register every group (even for a failed init) so Stats report
		// the partial work of a canceled session.
		e.groups = groups
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
		if ad.view != nil {
			e.stats.RRMemoryBytes += ad.view.MemoryFootprint()
		}
	}
	for _, g := range e.groups {
		e.stats.RRMemoryBytes += g.u.StoredBytes()
		// This session drew (or replayed) exactly its virtual sample
		// size; a cached group's pre-grown tail is not this session's
		// work. A canceled session can hold vsize > Size() — report only
		// what exists.
		e.stats.TotalRRSets += int64(min(g.vsize, g.u.Size()))
	}
	e.stats.SamplerMemoryBytes = e.snap.pool.MemoryFootprint()
	if e.opt.ShareSamples {
		// Exclusive singleton groups are storage plumbing, not sharing:
		// ShareGroups keeps meaning "distinct gamma groups".
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

// estimateKpt builds the group's KPT stream (seeded kSeed) and takes
// the initial KPT estimate at s=1. A shared group first repairs the KPT
// sets that swaps since its last read left stale, on this session's
// generation, and its stream resumes where the cached sets end.
func (e *solver) estimateKpt(g *adGroup, probs rrset.SampleProbs, kSeed uint64) error {
	if g.sg != nil {
		e.snap.pool.RepairUniverse(g.sg.kptU, probs, kSeed)
		g.kptSrc = e.snap.pool.NewStreamAt(probs, kSeed, g.sg.kptU.Size())
	} else {
		g.kptSrc = e.snap.pool.NewStream(probs, kSeed)
	}
	g.kptAtS = 1
	var err error
	g.kpt, err = e.kptAt(g, 1)
	return err
}

// kptAt takes one KPT estimate at seed-set size s from the group's next
// KPT slots: a shared group reads what its cache entry holds and draws
// the rest into it, an exclusive group streams every set.
func (e *solver) kptAt(g *adGroup, s int) (float64, error) {
	var kpt float64
	var err error
	if g.sg != nil {
		kpt, err = rrset.KptEstimateCarriedCtx(e.ctx, g.sg.kptU, g.kptSrc, &g.kptNext, e.m, int64(e.n), s, e.opt.Ell)
		g.sg.bytes.Store(g.sg.footprint())
	} else {
		kpt, err = rrset.KptEstimateParallelCtx(e.ctx, g.kptSrc, e.m, int64(e.n), s, e.opt.Ell)
	}
	if err != nil {
		return 0, e.canceled(err)
	}
	return kpt, nil
}

// initAd sets up one advertiser as a member of its sample group
// (Algorithm 2 lines 1–4): the group's virtual sample size is extended
// to the member's L(1, ε) requirement (growing the sample only when it
// is actually smaller — a cached group may already hold more) and the
// member receives a private prefix view over it and its candidate heap.
func (e *solver) initAd(i int, g *adGroup) (*adState, error) {
	ad := &adState{
		idx:    i,
		cpe:    e.p.Ads[i].CPE,
		budget: e.p.Ads[i].Budget,
		group:  g,
		pruned: make([]bool, e.n),
		s:      1,
		kpt:    g.kpt,
		active: true,
	}
	if need := e.thetaFor(ad, 1); need > g.vsize {
		g.vsize = need
	}
	if err := e.growUniverse(g); err != nil {
		return ad, err
	}
	ad.view = rrset.NewViewPrefix(g.u, g.vsize)
	ad.theta = ad.view.Size()
	g.members = append(g.members, ad)
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
		return float64(ad.view.CovCount(v)) / c
	default:
		// Cost-agnostic modes, and windowed cost-sensitive search (which
		// pops by coverage and picks the best ratio among the top w).
		return float64(ad.view.CovCount(v))
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
// increase and lazy revalidation would be unsound. The entries reuse the
// heap's backing array, which already holds room for every node.
func (e *solver) rebuildHeap(ad *adState) {
	ad.heap.Reset(int(e.n))
	entries := ad.heap.a
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
	mpi = ad.cpe * float64(e.n) * float64(ad.view.CovCount(v)) / float64(ad.theta)
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
	if ad.view.CovCount(v) == 0 {
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
	ad.view.CoverBy(v) // remove covered RR sets (line 14)
	e.setPi(ad, ad.cpe*float64(e.n)*float64(ad.view.NumCovered())/float64(ad.theta))
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
	_, maxCov := ad.view.MaxCovCount(func(v int32) bool { return !e.assigned[v] })
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
	g := ad.group
	if newTheta := e.thetaFor(ad, ad.s); newTheta > g.vsize {
		g.vsize = newTheta
	}
	if err := e.growUniverse(g); err != nil {
		return err
	}
	// Every member whose view lags the session's virtual sample size
	// absorbs the new sets (Algorithm 3 per member): re-attribute their
	// coverage to the existing seeds in insertion order, refresh the
	// revenue estimate, and rebuild the heap — coverage counts may have
	// increased, so lazy heap keys would be underestimates.
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

// refreshKpt re-estimates the KPT lower bound when s has doubled since
// the last estimation; OPT_s is monotone in s, so the stale (smaller)
// value remains a valid lower bound in between. Shared groups keep one
// estimate for all members.
func (e *solver) refreshKpt(ad *adState) error {
	g := ad.group
	if ad.s >= 2*g.kptAtS {
		kpt, err := e.kptAt(g, ad.s)
		if err != nil {
			return err
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
