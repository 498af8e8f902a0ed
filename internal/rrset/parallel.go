package rrset

import (
	"context"

	"repro/internal/graph"
)

// DefaultBatchSize is the number of RR sets a worker accumulates locally
// before handing them to the merger. Large enough to amortize channel
// operations to well under the cost of one reverse BFS, small enough to
// keep the merge pipeline busy.
const DefaultBatchSize = 256

// SampleOptions configures a ParallelSampler.
type SampleOptions struct {
	// Workers is the number of sampling goroutines. 0 means
	// runtime.NumCPU(); 1 selects the zero-overhead single-worker path,
	// which is bit-identical to a sequential Sampler seeded with the same
	// Seed.
	Workers int
	// BatchSize is how many RR sets each worker buffers per flush
	// (0 = DefaultBatchSize). It affects load balancing — batches are
	// statically assigned to workers round-robin — and therefore the exact
	// output stream for Workers > 1; determinism holds for a fixed
	// (Seed, Workers, BatchSize).
	BatchSize int
	// Seed derives every worker's RNG stream. With Workers = 1 the single
	// worker consumes xrand.New(Seed) directly; with more workers each
	// receives an independent Split of that parent stream.
	Seed uint64
}

// SampleSource is anything that emits a deterministic stream of RR sets:
// a Stream scheduled on a shared Pool, or a self-contained
// ParallelSampler. The node slice handed to yield is a window into a
// reused batch buffer — valid only for the duration of the yield call;
// consumers that retain sets copy them (the arena-backed ingest paths do
// so as part of their flat append).
type SampleSource interface {
	SampleN(count int, yield func(nodes []int32, width int64))
}

// CtxSampleSource is a SampleSource with cooperative cancellation: a
// canceled context stops emission at the next batch boundary and is
// reported as the returned error. See Stream.SampleNCtx for the effect
// of cancellation on a stream's deterministic replay.
type CtxSampleSource interface {
	SampleSource
	SampleNCtx(ctx context.Context, count int, yield func(nodes []int32, width int64)) error
}

var (
	_ CtxSampleSource = (*Stream)(nil)
	_ CtxSampleSource = (*ParallelSampler)(nil)
)

// ParallelSampler draws random RR sets for one ad on a private Pool of
// scratch slots. It is the self-contained front end kept for standalone
// use; components that sample for many ads at once (the engine, TIM, IMM)
// share one Pool across Streams instead, so their scratch stays
// O(Workers·n) regardless of advertiser count.
//
// Determinism is the Stream contract: the emitted sequence depends only
// on (Seed, Workers, BatchSize) and the sequence of SampleN calls — never
// on goroutine scheduling. A ParallelSampler is stateful (its RNG streams
// advance across calls) and must not be used from multiple goroutines at
// once; distinct ParallelSamplers are fully independent.
type ParallelSampler struct {
	*Stream
	pool *Pool
}

// NewParallelSampler builds a worker pool for the given graph and
// ad-specific arc probabilities. With opts.Workers == 1 the pool degrades
// to exactly NewSampler(g, probs, xrand.New(opts.Seed)) driven inline on
// the calling goroutine, so single-worker runs reproduce the sequential
// sampler bit for bit.
func NewParallelSampler(g *graph.Graph, probs []float32, opts SampleOptions) *ParallelSampler {
	pool := NewPool(g, PoolOptions{Workers: opts.Workers, BatchSize: opts.BatchSize})
	return &ParallelSampler{Stream: pool.NewStream(NewSampleProbs(g, probs), opts.Seed), pool: pool}
}

// NumWorkers returns the size of the worker pool.
func (ps *ParallelSampler) NumWorkers() int { return ps.pool.Workers() }

// Pool returns the sampler's private scratch pool (for memory accounting).
func (ps *ParallelSampler) Pool() *Pool { return ps.pool }

// AddFromParallel samples count RR sets from the source into the
// collection. Indexing (the copy into the arena tail plus inverted-index
// and bucket-queue updates) happens on the caller's goroutine while
// workers keep sampling, so the collection needs no internal locking.
// With a single-worker source it is equivalent to AddFrom on the
// underlying sequential sampler, and allocation-free once the arenas are
// warm.
func (c *Collection) AddFromParallel(src SampleSource, count int) {
	src.SampleN(count, func(nodes []int32, _ int64) { c.Add(nodes) })
}

// AddFromParallelCtx is AddFromParallel with cooperative cancellation: on
// a canceled context it stops after adding only a prefix of the requested
// sets and returns the context's error.
func (c *Collection) AddFromParallelCtx(ctx context.Context, src CtxSampleSource, count int) error {
	return src.SampleNCtx(ctx, count, func(nodes []int32, _ int64) { c.Add(nodes) })
}

// AddFromParallel samples count RR sets from the source into the
// universe; see Collection.AddFromParallel for the concurrency contract.
func (u *Universe) AddFromParallel(src SampleSource, count int) {
	src.SampleN(count, func(nodes []int32, _ int64) { u.Add(nodes) })
}

// AddFromParallelCtx is AddFromParallel with cooperative cancellation;
// see Collection.AddFromParallelCtx.
func (u *Universe) AddFromParallelCtx(ctx context.Context, src CtxSampleSource, count int) error {
	return src.SampleNCtx(ctx, count, func(nodes []int32, _ int64) { u.Add(nodes) })
}

// KptEstimateParallel is KptEstimate drawing its geometric batches from a
// sample source. The κ(R) terms are accumulated in the source's
// deterministic emission order, so the estimate is reproducible for a
// fixed configuration, and a single-worker source reproduces the
// sequential KptEstimate bit for bit.
func KptEstimateParallel(src SampleSource, m, n int64, size int, ell float64) float64 {
	kpt, _ := kptEstimate(func(count int, yield func(width int64)) error {
		src.SampleN(count, func(_ []int32, width int64) { yield(width) })
		return nil
	}, m, n, size, ell)
	return kpt
}

// KptEstimateParallelCtx is KptEstimateParallel with cooperative
// cancellation: a canceled context aborts the estimation loop at the next
// batch boundary and returns the context's error (the partial estimate is
// meaningless and discarded).
func KptEstimateParallelCtx(ctx context.Context, src CtxSampleSource, m, n int64, size int, ell float64) (float64, error) {
	return kptEstimate(func(count int, yield func(width int64)) error {
		return src.SampleNCtx(ctx, count, func(_ []int32, width int64) { yield(width) })
	}, m, n, size, ell)
}
