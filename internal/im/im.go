// Package im implements classic influence maximization — the foundation
// the paper's revenue-maximization machinery builds on (Section 4.1 and
// its references):
//
//   - GreedyMC: the hill-climbing greedy of Kempe, Kleinberg & Tardos
//     (KDD 2003) with Monte-Carlo spread estimation, accelerated with the
//     CELF lazy-evaluation trick of Leskovec et al. (KDD 2007);
//   - TIM: the Two-phase Influence Maximization of Tang, Xiao & Shi
//     (SIGMOD 2014) — KPT estimation, θ = λ/KPT random RR sets, then
//     greedy maximum coverage — giving a (1 − 1/e − ε)-approximation with
//     probability ≥ 1 − n^−ℓ;
//   - Degree and SingleDiscount heuristics as cheap baselines.
//
// The package shares the cascade and rrset substrates with the revenue
// engine and is usable standalone for plain IM workloads.
package im

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// ErrInvalidInput marks structurally invalid arguments (k out of range,
// mismatched cost vector, non-positive θ). Every validation failure wraps
// it, so callers dispatch with errors.Is. Cancellation surfaces as the
// context's own error (context.Canceled / context.DeadlineExceeded).
var ErrInvalidInput = errors.New("im: invalid input")

// Result reports an influence-maximization run.
type Result struct {
	// Seeds are the chosen nodes in selection order.
	Seeds []int32
	// SpreadEstimate is the algorithm's own estimate of σ(Seeds).
	SpreadEstimate float64
	// Theta is the RR sample size used (TIM only).
	Theta int
	// Kpt is the OPT_k lower bound used (TIM only).
	Kpt float64
}

// celfEntry is a lazily-evaluated marginal-gain entry.
type celfEntry struct {
	node  int32
	gain  float64
	round int // seed-set size at which gain was computed
}

type celfHeap []celfEntry

func (h celfHeap) Len() int            { return len(h) }
func (h celfHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GreedyMC runs CELF-accelerated greedy influence maximization with
// Monte-Carlo spread estimation: k seeds, runs cascades per estimate.
// By submodularity, a node's cached marginal gain only decreases as the
// seed set grows, so a cached entry computed in the current round is
// exact and can be selected without re-evaluating the rest.
// Cancellation is checked before every spread evaluation.
func GreedyMC(ctx context.Context, g *graph.Graph, probs []float32, k, runs, workers int, rng *xrand.RNG) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 || int64(k) > int64(g.NumNodes()) {
		return Result{}, fmt.Errorf("%w: k=%d out of range for %d nodes", ErrInvalidInput, k, g.NumNodes())
	}
	sim := cascade.NewSimulator(g, probs)
	// Deterministic evaluation stream: derive one sub-seed per seed-set
	// size from a fixed base, so marginal evaluations within a round use
	// common random numbers and repeated queries are consistent.
	base := rng.Uint64()
	spread := func(seeds []int32) float64 {
		if len(seeds) == 0 {
			return 0
		}
		return sim.SpreadParallel(seeds, runs, workers, xrand.New(base^uint64(len(seeds))*0x9e3779b97f4a7c15))
	}

	h := make(celfHeap, 0, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		h = append(h, celfEntry{node: u, gain: math.Inf(1), round: -1})
	}
	heap.Init(&h)

	var seeds []int32
	current := 0.0
	for len(seeds) < k && h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return Result{Seeds: seeds, SpreadEstimate: current}, err
		}
		top := heap.Pop(&h).(celfEntry)
		if top.round == len(seeds) {
			// Fresh for this round: by submodularity it dominates all
			// stale entries, so it is the greedy choice.
			seeds = append(seeds, top.node)
			current += top.gain
			continue
		}
		top.gain = spread(append(seeds, top.node)) - current
		top.round = len(seeds)
		heap.Push(&h, top)
	}
	return Result{Seeds: seeds, SpreadEstimate: spread(seeds)}, nil
}

// TIMOptions tunes the TIM and IMM algorithms.
type TIMOptions struct {
	// Epsilon is the approximation slack ε (default 0.1).
	Epsilon float64
	// Ell is the confidence exponent ℓ (default 1).
	Ell float64
	// MaxTheta caps the RR sample size (memory guard; 0 = 5,000,000).
	MaxTheta int
	// Workers is the number of concurrent RR-sampling goroutines. 0 and 1
	// both select the single-worker path, bit-identical to the historical
	// sequential sampler under the same RNG; larger values parallelize
	// sampling deterministically for a fixed (seed, Workers).
	Workers int
	// Pool optionally supplies a shared RR-sampling scratch pool. When
	// nil, each call constructs a private pool of Workers slots; passing
	// one pool across many TIM/IMM/BudgetedGreedy calls (or sharing the
	// revenue engine's) keeps worker scratch at O(Workers·n) total. The
	// pool's worker count then overrides Workers for sampling.
	Pool *rrset.Pool
}

// poolFor returns the configured shared pool, or a private one sized by
// Workers. Call on an options value that already has defaults applied.
func (o TIMOptions) poolFor(g *graph.Graph) *rrset.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return rrset.NewPool(g, rrset.PoolOptions{Workers: o.Workers})
}

func (o TIMOptions) withDefaults() TIMOptions {
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Ell == 0 {
		o.Ell = 1
	}
	if o.MaxTheta == 0 {
		o.MaxTheta = 5_000_000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// TIM runs Two-phase Influence Maximization: estimate a lower bound KPT
// on OPT_k, draw θ = L(k, ε) random RR sets, and pick k seeds by greedy
// maximum coverage. Returns a (1 − 1/e − ε)-approximate seed set with
// probability at least 1 − n^−ℓ. Cancellation is honored at sampling
// batch granularity and surfaces as the context's error.
func TIM(ctx context.Context, g *graph.Graph, probs []float32, k int, opt TIMOptions, rng *xrand.RNG) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 || int64(k) > int64(g.NumNodes()) {
		return Result{}, fmt.Errorf("%w: k=%d out of range for %d nodes", ErrInvalidInput, k, g.NumNodes())
	}
	opt = opt.withDefaults()
	n := int64(g.NumNodes())
	if k == 0 || n == 0 {
		return Result{}, nil
	}
	pool := opt.poolFor(g)
	sp := rrset.NewSampleProbs(g, probs)
	kpt, err := rrset.KptEstimateParallelCtx(ctx, pool.NewStream(sp, rng.Uint64()),
		g.NumEdges(), n, k, opt.Ell)
	if err != nil {
		return Result{}, err
	}

	theta := int(math.Ceil(rrset.Threshold(n, k, opt.Epsilon, opt.Ell, kpt)))
	if theta > opt.MaxTheta {
		theta = opt.MaxTheta
	}
	if theta < 1 {
		theta = 1
	}
	coll := rrset.NewCollection(g.NumNodes())
	if err := coll.AddFromParallelCtx(ctx, pool.NewStream(sp, rng.Uint64()), theta); err != nil {
		return Result{Theta: theta, Kpt: kpt}, err
	}

	seeds := make([]int32, 0, k)
	for len(seeds) < k {
		v, cnt := coll.MaxCovCount(nil)
		if v < 0 || cnt == 0 {
			break // nothing left to cover
		}
		coll.CoverBy(v)
		seeds = append(seeds, v)
	}
	est := float64(n) * float64(coll.NumCovered()) / float64(coll.Size())
	return Result{Seeds: seeds, SpreadEstimate: est, Theta: theta, Kpt: kpt}, nil
}

// Degree returns the k highest out-degree nodes — the classic baseline.
func Degree(g *graph.Graph, k int) []int32 {
	type nd struct {
		node int32
		deg  int32
	}
	all := make([]nd, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		all[u] = nd{u, g.OutDegree(u)}
	}
	// Partial selection sort is fine for small k; full sort otherwise.
	seeds := make([]int32, 0, k)
	used := make([]bool, g.NumNodes())
	for len(seeds) < k && len(seeds) < int(g.NumNodes()) {
		best := -1
		for i := range all {
			if used[all[i].node] {
				continue
			}
			if best < 0 || all[i].deg > all[best].deg {
				best = i
			}
		}
		used[all[best].node] = true
		seeds = append(seeds, all[best].node)
	}
	return seeds
}

// SingleDiscount returns k seeds by the single-discount heuristic (Chen
// et al., KDD 2009, adapted to directed influence graphs): a node's
// effective degree is the number of its out-neighbors not yet covered by
// earlier seeds; choosing a seed covers it and its out-neighbors, and
// every in-neighbor of a newly covered node loses one degree.
func SingleDiscount(g *graph.Graph, k int) []int32 {
	deg := make([]int32, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		deg[u] = g.OutDegree(u)
	}
	covered := make([]bool, g.NumNodes())
	cover := func(v int32) {
		if covered[v] {
			return
		}
		covered[v] = true
		for _, w := range g.InNeighbors(v) {
			if deg[w] > 0 {
				deg[w]--
			}
		}
	}
	used := make([]bool, g.NumNodes())
	seeds := make([]int32, 0, k)
	for len(seeds) < k && len(seeds) < int(g.NumNodes()) {
		best := int32(-1)
		for u := int32(0); u < g.NumNodes(); u++ {
			if used[u] {
				continue
			}
			if best < 0 || deg[u] > deg[best] {
				best = u
			}
		}
		used[best] = true
		seeds = append(seeds, best)
		cover(best)
		for _, v := range g.OutNeighbors(best) {
			cover(v)
		}
	}
	return seeds
}
