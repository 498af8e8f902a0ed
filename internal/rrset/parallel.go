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

// AddFromParallelCtx samples count RR sets from the stream into the
// universe. The copy into the arena tail happens on the caller's
// goroutine while the pool's workers keep sampling, so the universe
// needs no internal locking; the batch is then indexed as one segment
// on up to the pool's Workers goroutines. On a single-worker pool it is
// allocation-free once the arenas are warm. On a canceled context it
// stops after adding only a prefix of the requested sets, indexes that
// prefix and returns the context's error.
func (u *Universe) AddFromParallelCtx(ctx context.Context, src *Stream, count int) error {
	err := src.SampleNCtx(ctx, count, u.Add)
	u.idx.extend(u.data, u.offsets, src.pool.Workers())
	return err
}

// KptEstimateParallelCtx is TIM's KPT estimation (kptEstimate) drawing
// its geometric batches from a stream, each set's width summed from its
// members' in-degrees. The κ(R) terms are accumulated in the stream's
// slot order, so the estimate is a pure function of the stream's seed
// and start slot. A canceled context aborts the estimation loop at the
// next batch boundary and returns the context's error (the partial
// estimate is meaningless and discarded).
func KptEstimateParallelCtx(ctx context.Context, src *Stream, m, n int64, size int, ell float64) (float64, error) {
	return kptEstimate(func(count int, yield func(width int64)) error {
		return src.SampleNCtx(ctx, count, func(nodes []int32) { yield(width(src.pool.g, nodes)) })
	}, m, n, size, ell)
}

// KptEstimateCarriedCtx is KptEstimateParallelCtx over a carried KPT
// sample: it reads the sets of u's slots from *next on, draws only the
// slots u does not hold yet from src into u, and advances *next past
// every slot it read. src must be the stream whose slots u holds,
// resuming at u.Size(). Widths are summed from the pool graph's current
// in-degrees, so a u whose sets are all valid on that graph (stale ones
// repaired) gives the estimate KptEstimateParallelCtx gives on a stream
// started at *next. A canceled draw leaves u an exact prefix of src,
// as AddFromParallelCtx does.
func KptEstimateCarriedCtx(ctx context.Context, u *Universe, src *Stream, next *int, m, n int64, size int, ell float64) (float64, error) {
	return kptEstimate(func(count int, yield func(width int64)) error {
		if need := *next + count - u.Size(); need > 0 {
			if err := u.AddFromParallelCtx(ctx, src, need); err != nil {
				return err
			}
		}
		for id := *next; id < *next+count; id++ {
			yield(width(src.pool.g, u.Set(int32(id))))
		}
		*next += count
		return nil
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
