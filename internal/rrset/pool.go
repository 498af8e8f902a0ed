package rrset

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// scratch is one worker's reusable per-sample state: the epoch-stamped
// visited array. It carries no RNG and no probabilities, so one scratch
// slot can serve any ad's stream — visited entries from a previous
// borrower are invalidated by the monotone epoch, never by clearing the
// 8n-byte array.
type scratch struct {
	visited []int64
	epoch   int64
}

// SampleProbs is one ad's arc probabilities laid out in the order the
// sampling kernel reads them: element k belongs to the arc in in-CSR slot
// k of the graph it was built for (see graph.InCSR). The reverse BFS then
// reads each examined arc's source and probability side by side instead
// of gathering the probability through the arc's canonical edge ID. The
// canonical, edge-ID-indexed slice stays the form forward simulation
// (internal/cascade) uses; this is a permuted copy of it, 4 bytes per arc.
type SampleProbs struct {
	p []float32
}

// NewSampleProbs permutes canonical arc probabilities (indexed by edge
// ID) into g's in-CSR order. The result belongs to g: sampling on any
// other graph is undefined.
func NewSampleProbs(g *graph.Graph, probs []float32) SampleProbs {
	if int64(len(probs)) != g.NumEdges() {
		panic(fmt.Sprintf("rrset: %d probs for %d edges", len(probs), g.NumEdges()))
	}
	_, _, ids := g.InCSR()
	p := make([]float32, len(ids))
	for k, e := range ids {
		p[k] = probs[e]
	}
	return SampleProbs{p: p}
}

// sample draws one random RR set using this scratch: the lazy reverse BFS
// of Borgs et al. (SODA 2014). The returned node slice is freshly
// allocated and owned by the caller; scratch state is reusable immediately.
func (sc *scratch) sample(g *graph.Graph, probs []float32, rng *xrand.RNG) (nodes []int32, width int64) {
	return sc.sampleInto(nil, g, probs, rng)
}

// sampleInto draws one random RR set, appending its member nodes (target
// first) onto dst and returning the extended slice and the set's width.
// probs is in in-CSR order (SampleProbs). Writing into a caller-supplied
// tail is what lets collections and streams ingest sets with zero per-set
// allocations; the RNG consumption is identical to sample's, so
// destination choice can never perturb the deterministic stream.
//
// The RNG draws are exactly one Int31n for the target, then one Uint64 per
// examined arc whose source is unvisited and whose p > 0, compared as
// float64(x>>11)/2^53 < p — the RNG.Float64 coin. The xoshiro state lives
// in four locals for the whole BFS and is written back once per set.
func (sc *scratch) sampleInto(dst []int32, g *graph.Graph, probs []float32, rng *xrand.RNG) (nodes []int32, width int64) {
	n := g.NumNodes()
	if int64(len(sc.visited)) < int64(n) {
		sc.visited = make([]int64, n)
		sc.epoch = 0
	}
	sc.epoch++
	epoch, visited := sc.epoch, sc.visited
	off, srcs, _ := g.InCSR()
	target := rng.Int31n(n)
	visited[target] = epoch
	// The members appended so far are the BFS queue: the front is an
	// index cursor into nodes, starting at the target.
	nodes = append(dst, target)
	width = off[target+1] - off[target]
	s0, s1, s2, s3 := rng.State()
	for qi := len(dst); qi < len(nodes); qi++ {
		v := nodes[qi]
		lo, hi := off[v], off[v+1]
		us := srcs[lo:hi]
		ps := probs[lo:hi]
		ps = ps[:len(us)] // lets ps[i] below go without a bounds check
		for i, u := range us {
			if visited[u] == epoch {
				continue
			}
			p := ps[i]
			if !(p > 0) {
				continue
			}
			var x uint64
			x, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
			if float64(x>>11)/(1<<53) < float64(p) {
				visited[u] = epoch
				nodes = append(nodes, u)
				width += off[u+1] - off[u]
			}
		}
	}
	rng.SetState(s0, s1, s2, s3)
	return nodes, width
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Workers is the number of scratch slots, which bounds both scratch
	// memory (Workers visited arrays of 8n bytes) and the number of
	// concurrently sampling goroutines across every stream sharing the
	// pool. 0 means runtime.NumCPU().
	Workers int
	// BatchSize is how many RR sets a stream worker produces per slot
	// checkout and per merge flush (0 = DefaultBatchSize). It is part of
	// every stream's determinism key (Seed, Workers, BatchSize).
	BatchSize int
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// Pool is an engine-wide set of Workers reusable scratch slots for RR-set
// sampling on one graph. Any number of Streams — one per (ad, purpose) —
// borrow slots batch by batch, so total scratch memory is O(Workers·n)
// for the whole run, independent of how many advertisers sample through
// it (the pre-pool design kept one visited array per worker per ad:
// O(h·Workers·n)).
//
// Slot checkout is a buffered channel: deadlock-free because a slot is
// held only across one batch of pure computation, never across a channel
// send or a yield to the caller. Scratch identity does not influence any
// emitted set (randomness lives in the streams' RNGs, membership tests in
// monotone epochs), so slot scheduling — which IS timing-dependent —
// cannot perturb the deterministic output contract.
type Pool struct {
	g     *graph.Graph
	batch int
	slots []*scratch
	free  chan *scratch
	// scratchBytes is the scratch footprint: visited arrays are added at
	// materialization.
	scratchBytes atomic.Int64
}

// NewPool builds a pool of opts.Workers scratch slots for the graph.
// Visited arrays are materialized lazily on first checkout, so a pool
// whose early requests are small (KPT's first rounds) touches only the
// slots it actually uses.
func NewPool(g *graph.Graph, opts PoolOptions) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		g:     g,
		batch: opts.BatchSize,
		slots: make([]*scratch, opts.Workers),
		free:  make(chan *scratch, opts.Workers),
	}
	for i := range p.slots {
		p.slots[i] = &scratch{}
		p.free <- p.slots[i]
	}
	return p
}

// Workers returns the number of scratch slots.
func (p *Pool) Workers() int { return len(p.slots) }

// BatchSize returns the per-checkout batch size.
func (p *Pool) BatchSize() int { return p.batch }

// acquire checks out a scratch slot, blocking until one is free, and
// materializes its visited array on first use.
func (p *Pool) acquire() *scratch {
	sc := <-p.free
	if sc.visited == nil {
		sc.visited = make([]int64, p.g.NumNodes())
		p.scratchBytes.Add(int64(p.g.NumNodes()) * 8)
	}
	return sc
}

// release returns a slot.
func (p *Pool) release(sc *scratch) { p.free <- sc }

// MemoryFootprint returns the pool's scratch footprint in bytes: the
// materialized visited arrays. It is O(Workers·n) by construction and
// safe to read concurrently with sampling.
func (p *Pool) MemoryFootprint() int64 { return p.scratchBytes.Load() }

// Stream draws random RR sets for one ad (one arc-probability slice) on a
// shared Pool. It owns only the lightweight deterministic state — the
// probabilities and the pre-split per-worker RNG streams — and borrows
// scratch from the pool batch by batch.
//
// Work distribution is the static-batch design the pool inherits from the
// original per-ad sampler: the output stream is divided into batches of
// the pool's BatchSize, batch b is produced from RNG stream b mod W, and
// a merger consumes batches in global order. The emitted sequence is a
// pure function of (seed, pool Workers, pool BatchSize) and the sequence
// of SampleN calls — never of goroutine scheduling or slot contention.
//
// A Stream is stateful (its RNG streams advance across calls) and must
// not be used from multiple goroutines at once; distinct Streams on one
// pool are independent and may run SampleN concurrently — they contend
// only for scratch slots.
type Stream struct {
	pool  *Pool
	probs []float32 // in-CSR order (SampleProbs)
	rngs  []*xrand.RNG
	// Reusable single-worker batch buffers: member nodes of the current
	// batch flat in bufData, per-set end offsets and widths alongside.
	// Retained across SampleN calls, so warm steady-state sampling on the
	// single-worker path performs zero per-set heap allocations.
	bufData   []int32
	bufEnds   []int
	bufWidths []int64
}

// flatBatch is one multi-worker batch of RR sets in flat form: all
// member nodes concatenated, with per-set end offsets and widths. Within
// one SampleNCtx call the merger hands every drained batch back to the
// workers for reuse, so a call allocates buffers for only the batches in
// flight at once, not three slices per batch.
type flatBatch struct {
	data   []int32
	ends   []int
	widths []int64
}

// NewStream builds a stream of RR sets for the given ad-specific arc
// probabilities, seeded exactly as the historical per-ad sampler: with
// one pool worker the stream consumes xrand.New(seed) directly and is
// bit-identical to NewSampler(g, canonical, xrand.New(seed)) where
// probs = NewSampleProbs(g, canonical); with W > 1 workers each RNG
// stream is an independent Split of that parent, fixed at construction.
func (p *Pool) NewStream(probs SampleProbs, seed uint64) *Stream {
	if int64(len(probs.p)) != p.g.NumEdges() {
		panic("rrset: stream probs length != graph edges")
	}
	parent := xrand.New(seed)
	s := &Stream{pool: p, probs: probs.p}
	if len(p.slots) == 1 {
		s.rngs = []*xrand.RNG{parent}
		return s
	}
	s.rngs = make([]*xrand.RNG, len(p.slots))
	for i := range s.rngs {
		s.rngs[i] = parent.Split()
	}
	return s
}

// SampleN draws count RR sets and hands each — member nodes and width
// w(R) — to yield, which runs on the calling goroutine. The node slice
// is a window into a reused batch buffer: it is valid only for the
// duration of the yield call and must be copied to be retained (the
// arena-backed Collection/Universe ingest paths copy into their flat
// storage). The emission order is deterministic for a fixed stream
// configuration.
func (s *Stream) SampleN(count int, yield func(nodes []int32, width int64)) {
	s.SampleNCtx(context.Background(), count, yield)
}

// SampleNCtx is SampleN with cooperative cancellation: the context is
// checked once per batch (the pool's BatchSize), so a canceled sampling
// request returns within one batch's worth of reverse BFS work. On
// cancellation it returns the context's error after emitting only a
// prefix of the requested sets.
//
// Cancellation aborts the stream's deterministic replay: with multiple
// workers, batches drawn but not yet merged are discarded, so the RNG
// streams advance past the emitted prefix and LATER SampleN calls on the
// same Stream no longer reproduce the uncanceled sequence. Every emitted
// set is still an exact RR-set draw — only bit-reproducibility of the
// stream's continuation is lost. Callers that cache streams across runs
// must discard a stream whose SampleNCtx returned an error.
func (s *Stream) SampleNCtx(ctx context.Context, count int, yield func(nodes []int32, width int64)) error {
	if count <= 0 {
		return ctx.Err()
	}
	p := s.pool
	if len(s.rngs) == 1 {
		// Single-worker path: sequential sampling on the calling
		// goroutine. Each batch is drawn flat into the stream's reused
		// buffers with the slot held, then released *before* yielding —
		// the same slot-never-held-across-a-yield rule as the
		// multi-worker path (so a yield that itself samples through the
		// pool cannot self-deadlock), which also lets concurrent streams
		// interleave fairly on the one slot. Buffer reuse across calls is
		// what makes warm sampling allocation-free.
		rng := s.rngs[0]
		for done := 0; done < count; {
			if err := ctx.Err(); err != nil {
				return err
			}
			chunk := p.batch
			if chunk > count-done {
				chunk = count - done
			}
			sc := p.acquire()
			s.bufData = s.bufData[:0]
			s.bufEnds = s.bufEnds[:0]
			s.bufWidths = s.bufWidths[:0]
			for i := 0; i < chunk; i++ {
				var width int64
				s.bufData, width = sc.sampleInto(s.bufData, p.g, s.probs, rng)
				s.bufEnds = append(s.bufEnds, len(s.bufData))
				s.bufWidths = append(s.bufWidths, width)
			}
			p.release(sc)
			start := 0
			for i, end := range s.bufEnds {
				yield(s.bufData[start:end:end], s.bufWidths[i])
				start = end
			}
			done += chunk
		}
		return nil
	}
	w := len(s.rngs)
	numBatches := (count + p.batch - 1) / p.batch
	active := w
	if numBatches < active {
		active = numBatches // trailing RNG streams have no batch this call
	}
	// One channel per RNG stream keeps its batches in order without a
	// reorder buffer: the merger pops batch b from channel b mod W.
	chans := make([]chan flatBatch, active)
	for i := range chans {
		chans[i] = make(chan flatBatch, 2)
	}
	// Drained batches return through free. Its capacity covers every
	// batch that can exist at once (two queued per channel, one being
	// filled per worker, one being merged), so a put never blocks. The
	// list dies with the call: buffers parked on a long-lived cached
	// stream would pin the largest batches ever drawn.
	free := make(chan flatBatch, 3*active+1)
	var wg sync.WaitGroup
	for wi := 0; wi < active; wi++ {
		wg.Add(1)
		go func(wi int, rng *xrand.RNG) {
			defer wg.Done()
			for b := wi; b < numBatches; b += w {
				if ctx.Err() != nil {
					break
				}
				lo := b * p.batch
				hi := lo + p.batch
				if hi > count {
					hi = count
				}
				var batch flatBatch
				select {
				case batch = <-free:
					batch.data = batch.data[:0]
					batch.ends = batch.ends[:0]
					batch.widths = batch.widths[:0]
				default:
					batch.ends = make([]int, 0, hi-lo)
					batch.widths = make([]int64, 0, hi-lo)
				}
				// Borrow scratch for the batch only: the send below can
				// block on the merger, and holding a slot there would let
				// concurrent streams starve each other.
				sc := p.acquire()
				for j := 0; j < hi-lo; j++ {
					var width int64
					batch.data, width = sc.sampleInto(batch.data, p.g, s.probs, rng)
					batch.ends = append(batch.ends, len(batch.data))
					batch.widths = append(batch.widths, width)
				}
				p.release(sc)
				chans[wi] <- batch
			}
			close(chans[wi])
		}(wi, s.rngs[wi])
	}
	for b := 0; b < numBatches; b++ {
		batch, ok := <-chans[b%w]
		if !ok {
			// The producer of this batch observed cancellation and closed
			// its channel early; the merged prefix ends here.
			break
		}
		start := 0
		for i, end := range batch.ends {
			yield(batch.data[start:end:end], batch.widths[i])
			start = end
		}
		free <- batch
	}
	// Unblock any workers parked on a full channel (the merge loop may
	// have exited early), then discard their in-flight batches. On the
	// uncanceled path every channel is already closed and empty, so this
	// drain is free.
	for _, ch := range chans {
		for range ch { //nolint:revive // draining
		}
	}
	wg.Wait()
	return ctx.Err()
}
