package rrset

import (
	"context"
	"sync"
)

// DefaultBatchSize is the number of RR sets a worker accumulates locally
// before handing them to the merger. Large enough to amortize channel
// operations to well under the cost of one reverse BFS, small enough to
// keep the merge pipeline busy.
const DefaultBatchSize = 256

// AddFromParallel samples count RR sets from the stream into the
// universe. Indexing (the copy into the arena tail plus inverted-index
// updates) happens on the caller's goroutine while the pool's workers
// keep sampling, so the universe needs no internal locking. On a
// single-worker pool it is allocation-free once the arenas are warm.
func (u *Universe) AddFromParallel(src *Stream, count int) {
	src.SampleN(count, func(nodes []int32, _ int64) { u.Add(nodes) })
}

// AddFromParallelCtx is AddFromParallel with cooperative cancellation: on
// a canceled context it stops after adding only a prefix of the requested
// sets and returns the context's error.
func (u *Universe) AddFromParallelCtx(ctx context.Context, src *Stream, count int) error {
	return src.SampleNCtx(ctx, count, func(nodes []int32, _ int64) { u.Add(nodes) })
}

// KptEstimateParallelCtx is KptEstimate drawing its geometric batches
// from a stream. The κ(R) terms are accumulated in the stream's slot
// order, so the estimate is a pure function of the stream's seed and
// start slot. A canceled context aborts the estimation loop at the next
// batch boundary and returns the context's error (the partial estimate
// is meaningless and discarded).
func KptEstimateParallelCtx(ctx context.Context, src *Stream, m, n int64, size int, ell float64) (float64, error) {
	return kptEstimate(func(count int, yield func(width int64)) error {
		return src.SampleNCtx(ctx, count, func(_ []int32, width int64) { yield(width) })
	}, m, n, size, ell)
}

// fanOut runs work(0) … work(k-1) concurrently, work(0) on the calling
// goroutine, and returns once every call has.
func fanOut(k int, work func(chunk int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() {
			defer wg.Done()
			work(c)
		}()
	}
	work(0)
	wg.Wait()
}
