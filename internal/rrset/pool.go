package rrset

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
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
	// exactDraws counts the skip-path draws whose gap lnUniform could not
	// settle, so sampleInto took math.Log for them (see sampleInto). Tests
	// read it to bound how often that happens.
	exactDraws int64
}

// SampleProbs is one ad's arc probabilities laid out in the order the
// sampling kernel reads them: element k belongs to the arc in in-CSR slot
// k of the graph it was built for (see graph.InCSR). The reverse BFS then
// reads each examined arc's source and probability side by side instead
// of gathering the probability through the arc's canonical edge ID. The
// canonical, edge-ID-indexed slice stays the form forward simulation
// (internal/cascade) uses; this is a permuted copy of it, 4 bytes per arc.
//
// skip picks the kernel's path per node, 8 bytes per node:
//   - skip path, skip ≤ 0: 1/ln(1−p) when every in-arc of the node has
//     the same p in (0, 1] (−0 at p = 1), so its live in-arcs are drawn by
//     geometric gaps;
//   - mixed path, skip > 0: the node's in-arcs differ but most share one
//     p0 (see NewSampleProbs), and skip is 1 + the index of its entry in
//     mixed, which holds the rate of its gaps and its top-up list;
//   - per-arc path, skip NaN: each in-arc flips its own coin.
type SampleProbs struct {
	p     []float32
	skip  []float64
	mixed []mixedNode
}

// mixedNode is one mixed-path node's draw rule: geometric gaps at its
// base rate p0 over all its in-arcs (inv = 1/ln(1−p0)), then one top-up
// coin per arc above p0. 40 bytes per node, plus 16 per top-up arc.
type mixedNode struct {
	inv, p0 float64
	up      []topUp
}

// topUp is an arc of probability p > p0: its position i among the node's
// in-arcs and the coin q = (p − p0)/(1 − p0) it flips when the gaps left
// it dead, so that it is live with probability p0 + (1 − p0)·q = p.
type topUp struct {
	q float64
	i int32
}

// NewSampleProbs permutes canonical arc probabilities (indexed by edge
// ID) into g's in-CSR order and picks each node's kernel path: the skip
// path when its in-arcs share one probability, the mixed path when they
// do not but drawing gaps at their mode p0 (ties to the smallest, with
// 0 < p0 < 1) is expected to be cheaper than a coin per arc, and the
// per-arc path otherwise. The mixed path's test, 4·(d·p0 + 1) + k < d
// for in-degree d and k arcs above p0, prices a gap draw at four coins:
// about d·p0 + 1 gap draws against up to d coins, plus k top-up coins.
// The result belongs to g: sampling on any other graph is undefined.
func NewSampleProbs(g *graph.Graph, probs []float32) SampleProbs {
	sp := perArcProbs(g, probs)
	off, _, _ := g.InCSR()
	var modes modeTable
	var up []topUp
	for v := range sp.skip {
		ps := sp.p[off[v]:off[v+1]]
		if len(ps) > 0 && ps[0] > 0 && ps[0] <= 1 && !slices.ContainsFunc(ps, func(p float32) bool { return p != ps[0] }) {
			sp.skip[v] = 1 / math.Log1p(-float64(ps[0]))
			continue
		}
		if len(ps) < 5 { // 4·(d·p0 + 1) < d needs d > 4
			continue
		}
		p0 := modes.mode(ps)
		if !(p0 > 0) {
			continue
		}
		k := 0
		for _, p := range ps {
			if p > p0 {
				k++
			}
		}
		if d := float64(len(ps)); 4*(d*float64(p0)+1)+float64(k) >= d {
			continue
		}
		lo := len(up)
		for i, p := range ps {
			if p > p0 {
				up = append(up, topUp{q: (float64(p) - float64(p0)) / (1 - float64(p0)), i: int32(i)})
			}
		}
		// up is sliced per node once it stops growing, below.
		sp.mixed = append(sp.mixed, mixedNode{inv: 1 / math.Log1p(-float64(p0)), p0: float64(p0), up: up[lo:]})
		sp.skip[v] = float64(len(sp.mixed))
	}
	at := 0
	for i := range sp.mixed {
		k := len(sp.mixed[i].up)
		sp.mixed[i].up = up[at : at+k : at+k]
		at += k
	}
	return sp
}

// modeTable finds the mixed path's base rate of one node at a time: an
// open-addressing table counting equal probabilities by their bits, in
// O(d) per node, kept across nodes.
type modeTable struct {
	keys   []uint32
	counts []int32
}

// mode returns the most frequent of ps over (0, 1), ties to the
// smallest, or 0 when no probability lies in (0, 1).
func (t *modeTable) mode(ps []float32) (p0 float32) {
	lg := bits.Len(uint(2 * len(ps))) // 2^lg > 2d slots
	size := 1 << lg
	if len(t.keys) < size {
		t.keys, t.counts = make([]uint32, size), make([]int32, size)
	}
	keys, counts := t.keys[:size], t.counts[:size]
	clear(counts)
	best := int32(0)
	for _, p := range ps {
		if !(p > 0 && p < 1) {
			continue
		}
		b := math.Float32bits(p)
		h := b * 0x9e3779b1 >> (32 - lg) // Fibonacci hashing
		for counts[h] != 0 && keys[h] != b {
			h = (h + 1) & uint32(size-1)
		}
		keys[h] = b
		counts[h]++
		if c := counts[h]; c > best || c == best && p < p0 {
			p0, best = p, c
		}
	}
	return p0
}

// perArcProbs is NewSampleProbs with every node on the per-arc path: the
// kernel then flips one coin per examined arc, the draw rule the
// test-only sequential Sampler keeps as the reference distribution.
func perArcProbs(g *graph.Graph, probs []float32) SampleProbs {
	if int64(len(probs)) != g.NumEdges() {
		panic(fmt.Sprintf("rrset: %d probs for %d edges", len(probs), g.NumEdges()))
	}
	off, _, ids := g.InCSR()
	sp := SampleProbs{p: make([]float32, len(ids)), skip: make([]float64, len(off)-1)}
	for k, e := range ids {
		sp.p[k] = probs[e]
	}
	for v := range sp.skip {
		sp.skip[v] = math.NaN()
	}
	return sp
}

// width returns a set's width w(R), the number of arcs entering its
// members: the quantity TIM's KPT estimator reads.
func width(g *graph.Graph, nodes []int32) int64 {
	off, _, _ := g.InCSR()
	var w int64
	for _, v := range nodes {
		w += off[v+1] - off[v]
	}
	return w
}

// sampleInto draws one random RR set — the lazy reverse BFS of Borgs et
// al. (SODA 2014) — appending its member nodes (target first) onto dst
// and returning the extended slice. Writing into a caller-supplied tail
// is what lets collections and streams ingest sets with zero per-set
// allocations; the RNG consumption does not depend on dst, so
// destination choice can never perturb the deterministic stream.
//
// The RNG draws are exactly one Int31n for the target, then per dequeued
// member v, on v's in-arcs in in-CSR order:
//   - skip path (probs.skip[v] ≤ 0): one Uint64 x per gap, with
//     U = (x>>11 + 1)/2^53 in (0, 1] and gap ⌊math.Log(U) · skip[v]⌋, a
//     Geometric(p) count of dead arcs before the next live one; the draws
//     stop at the first gap that reaches past the last arc. A live arc
//     whose source is already visited is passed over after its draw: by
//     the live-edge equivalence its coin need not be skipped. The gap is
//     computed from lnUniform's table logarithm wherever its error
//     bound (skipMargin) settles ⌊·⌋ and the stop test, and from
//     math.Log otherwise, so both give the math.Log rule's gap. A p = 1
//     node (skip[v] = −0) takes its gap-0 draws, one per arc, without a
//     logarithm.
//   - mixed path (skip[v] > 0): the skip path's gaps at the node's base
//     rate p0, which land on each arc with probability p0. A landed arc
//     of p < p0 whose source is unvisited is kept on one more Uint64,
//     float64(x>>11)/2^53 · p0 < p, so with probability p/p0, and one of
//     p = 0 is dropped without a draw. After the gaps, each top-up arc
//     (p > p0) whose source is still unvisited takes one Uint64 coin,
//     float64(x>>11)/2^53 < q. Every arc is then live with probability
//     exactly p, independently of the others.
//   - per-arc path: one Uint64 per arc whose source is unvisited and
//     whose p > 0, compared as float64(x>>11)/2^53 < p — the RNG.Float64
//     coin.
//
// The xoshiro state lives in four locals for the whole BFS and is
// written back once per set.
func (sc *scratch) sampleInto(dst []int32, g *graph.Graph, probs SampleProbs, rng *xrand.RNG) []int32 {
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
	nodes := append(dst, target)
	s0, s1, s2, s3 := rng.State()
	for qi := len(dst); qi < len(nodes); qi++ {
		v := nodes[qi]
		lo, hi := off[v], off[v+1]
		us := srcs[lo:hi]
		switch inv := probs.skip[v]; {
		case inv == 0:
			// p = 1: every gap is 0 and every arc live. The draws are
			// still taken, one per arc, as the gap rule takes them.
			for _, u := range us {
				_, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
				if visited[u] != epoch {
					visited[u] = epoch
					nodes = append(nodes, u)
				}
			}
			continue
		case !math.IsNaN(inv): // the skip or the mixed path
			var mix *mixedNode
			if inv > 0 {
				mix = &probs.mixed[int(inv)-1]
				inv = mix.inv
			}
			margin := skipMargin(inv)
			for i := 0; i < len(us); i++ {
				var x uint64
				x, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
				// Compared in float, so a huge gap (tiny p) cannot overflow.
				rem := float64(len(us) - i)
				gap := lnUniform(x) * inv
				if gap >= rem+margin {
					break
				}
				// gap < rem+margin keeps n in int's range unless margin >
				// 1/2, and then no f passes the test below.
				n := int(gap)
				if f := gap - float64(n); !(f >= margin && f <= 1-margin) {
					sc.exactDraws++
					if gap = math.Log(float64(x>>11+1)/(1<<53)) * inv; gap >= rem {
						break
					}
					n = int(gap)
				}
				i += n
				u := us[i]
				if visited[u] == epoch {
					continue
				}
				if mix != nil {
					// Thin an arc below the base rate to p/p0.
					if p := float64(probs.p[lo+int64(i)]); !(p >= mix.p0) {
						if !(p > 0) {
							continue
						}
						x, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
						if !(float64(x>>11)/(1<<53)*mix.p0 < p) {
							continue
						}
					}
				}
				visited[u] = epoch
				nodes = append(nodes, u)
			}
			if mix != nil {
				for _, t := range mix.up {
					if u := us[t.i]; visited[u] != epoch {
						var x uint64
						x, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
						if float64(x>>11)/(1<<53) < t.q {
							visited[u] = epoch
							nodes = append(nodes, u)
						}
					}
				}
			}
			continue
		}
		ps := probs.p[lo:hi]
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
			}
		}
	}
	rng.SetState(s0, s1, s2, s3)
	return nodes
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Workers is the number of scratch slots, which bounds both scratch
	// memory (Workers visited arrays of 8n bytes) and the number of
	// concurrently sampling goroutines across every stream sharing the
	// pool. 0 means runtime.NumCPU(). RepairUniverse alone goes beyond
	// it: it fans out to GOMAXPROCS goroutines, on repair-only scratch
	// slots where the pool's run out (see Pool.borrowScratch).
	Workers int
	// BatchSize is how many RR sets a stream worker produces per slot
	// checkout and per merge flush (0 = DefaultBatchSize), and so the
	// granularity of a stream's cancellation checks. Neither it nor
	// Workers changes what a stream emits.
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
// emitted set (randomness lives in per-slot seeds, membership tests in
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
	// extra holds the idle repair-only scratch slots (see borrowScratch).
	extraMu sync.Mutex
	extra   []*scratch
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

// acquire checks out a scratch slot, blocking until one is free, and
// materializes its visited array on first use.
func (p *Pool) acquire() *scratch {
	return p.materialize(<-p.free)
}

// materialize builds sc's visited array if it has none yet.
func (p *Pool) materialize(sc *scratch) *scratch {
	if sc.visited == nil {
		sc.visited = make([]int64, p.g.NumNodes())
		p.scratchBytes.Add(int64(p.g.NumNodes()) * 8)
	}
	return sc
}

// release returns a slot.
func (p *Pool) release(sc *scratch) { p.free <- sc }

// borrowScratch checks out k scratch slots for one RepairUniverse
// fan-out without blocking: the pool's free slots first, then
// repair-only extras, made on first need and kept for the pool's life.
// It returns the slots and how many of them are pool slots.
func (p *Pool) borrowScratch(k int) (scs []*scratch, pooled int) {
	scs = make([]*scratch, 0, k)
take:
	for len(scs) < k {
		select {
		case sc := <-p.free:
			scs = append(scs, p.materialize(sc))
		default:
			break take
		}
	}
	pooled = len(scs)
	p.extraMu.Lock()
	defer p.extraMu.Unlock()
	for len(scs) < k {
		if n := len(p.extra); n > 0 {
			scs = append(scs, p.extra[n-1])
			p.extra = p.extra[:n-1]
		} else {
			scs = append(scs, p.materialize(&scratch{}))
		}
	}
	return scs, pooled
}

// returnScratch hands back what borrowScratch lent.
func (p *Pool) returnScratch(scs []*scratch, pooled int) {
	for _, sc := range scs[:pooled] {
		p.release(sc)
	}
	p.extraMu.Lock()
	p.extra = append(p.extra, scs[pooled:]...)
	p.extraMu.Unlock()
}

// MemoryFootprint returns the pool's scratch footprint in bytes: the
// materialized visited arrays, the pool's Workers slots and any
// repair-only extras. It is O(max(Workers, GOMAXPROCS)·n) by
// construction and safe to read concurrently with sampling.
func (p *Pool) MemoryFootprint() int64 { return p.scratchBytes.Load() }

// Stream draws random RR sets for one ad (one arc-probability slice) on a
// shared Pool. It owns only the probabilities, the seed and its next
// slot, and borrows scratch from the pool batch by batch.
//
// Slot k of a stream seeded s is drawn from an RNG seeded
// xrand.SlotSeed(s, k), the discipline RepairUniverse and RebuildUniverse use, so the
// emitted sequence is a pure function of the seed — never of the pool's
// Workers or BatchSize, of how the sets are split across SampleNCtx
// calls, or of goroutine scheduling — and repairing a stale slot redraws it
// exactly as a cold stream on the new graph would.
//
// A Stream is stateful (its next slot advances across calls) and must
// not be used from multiple goroutines at once; distinct Streams on one
// pool are independent and may run SampleNCtx concurrently — they
// contend only for scratch slots.
type Stream struct {
	pool  *Pool
	probs SampleProbs
	seed  uint64
	// next is the slot the next emitted set is drawn from: always the
	// number of sets the stream has emitted, canceled calls included.
	next int
	// buf is the single-worker path's reusable batch buffer. Retained
	// across SampleNCtx calls, so warm steady-state sampling on that path
	// performs zero per-set heap allocations.
	buf flatBatch
}

// flatBatch is one multi-worker batch of RR sets in flat form: all
// member nodes concatenated, with per-set end offsets. Within
// one SampleNCtx call the merger hands every drained batch back to the
// workers for reuse, so a call allocates buffers for only the batches in
// flight at once, not two slices per batch.
type flatBatch struct {
	data []int32
	ends []int
}

// NewStream builds a stream of RR sets for the given ad-specific arc
// probabilities that starts at slot 0.
func (p *Pool) NewStream(probs SampleProbs, seed uint64) *Stream {
	return p.NewStreamAt(probs, seed, 0)
}

// NewStreamAt builds a stream that resumes at slot next: it emits what a
// NewStream of the same seed emits after its first next sets.
func (p *Pool) NewStreamAt(probs SampleProbs, seed uint64, next int) *Stream {
	if int64(len(probs.p)) != p.g.NumEdges() {
		panic("rrset: stream probs length != graph edges")
	}
	return &Stream{pool: p, probs: probs, seed: seed, next: next}
}

// fill appends the sets of slots [lo, hi) onto b, drawing each from its
// own reseeded rng with scratch sc.
func (s *Stream) fill(b *flatBatch, sc *scratch, rng *xrand.RNG, lo, hi int) {
	for slot := lo; slot < hi; slot++ {
		rng.Seed(xrand.SlotSeed(s.seed, slot))
		b.data = sc.sampleInto(b.data, s.pool.g, s.probs, rng)
		b.ends = append(b.ends, len(b.data))
	}
}

// SampleNCtx draws count RR sets and hands each set's member nodes to
// yield, which runs on the calling goroutine. The node slice is a window
// into a reused batch buffer: it is valid only for the duration of the
// yield call and must be copied to be retained (the arena-backed
// Universe ingest path copies into its flat storage). The sets are the
// stream's next count slots, in slot order.
//
// Cancellation is cooperative: the context is checked once per batch
// (the pool's BatchSize), so a canceled sampling request returns within
// one batch's worth of reverse BFS work. On cancellation it returns the context's error after emitting only a
// prefix of the requested sets; once every requested set is emitted it
// returns nil, even if the context was canceled during the last yield.
// Sets drawn but not emitted are dropped, and the stream resumes at the
// first slot it did not emit: a later call continues the uncanceled
// sequence exactly.
func (s *Stream) SampleNCtx(ctx context.Context, count int, yield func(nodes []int32)) error {
	if count <= 0 {
		return ctx.Err()
	}
	p := s.pool
	if len(p.slots) == 1 {
		// Single-worker path: sequential sampling on the calling
		// goroutine. Each batch is drawn flat into the stream's reused
		// buffer with the slot held, then released *before* yielding —
		// the same slot-never-held-across-a-yield rule as the
		// multi-worker path (so a yield that itself samples through the
		// pool cannot self-deadlock), which also lets concurrent streams
		// interleave fairly on the one slot.
		var rng xrand.RNG
		for end := s.next + count; s.next < end; {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := min(s.next+p.batch, end)
			s.buf.data, s.buf.ends = s.buf.data[:0], s.buf.ends[:0]
			sc := p.acquire()
			s.fill(&s.buf, sc, &rng, s.next, hi)
			p.release(sc)
			s.emit(s.buf, yield)
		}
		return nil
	}
	// Multi-worker path: batch b holds slots next+b·BatchSize onward and
	// is drawn by worker b mod W; a merger emits the batches in order.
	w := len(p.slots)
	first := s.next
	numBatches := (count + p.batch - 1) / p.batch
	active := min(w, numBatches) // trailing workers have no batch this call
	// One channel per worker keeps its batches in order without a
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
		go func(wi int) {
			defer wg.Done()
			var rng xrand.RNG
			for b := wi; b < numBatches; b += w {
				if ctx.Err() != nil {
					break
				}
				lo := first + b*p.batch
				hi := min(lo+p.batch, first+count)
				var batch flatBatch
				select {
				case batch = <-free:
					batch.data, batch.ends = batch.data[:0], batch.ends[:0]
				default:
					batch.ends = make([]int, 0, hi-lo)
				}
				// Borrow scratch for the batch only: the send below can
				// block on the merger, and holding a slot there would let
				// concurrent streams starve each other.
				sc := p.acquire()
				s.fill(&batch, sc, &rng, lo, hi)
				p.release(sc)
				chans[wi] <- batch
			}
			close(chans[wi])
		}(wi)
	}
	for b := 0; b < numBatches; b++ {
		batch, ok := <-chans[b%w]
		if !ok {
			// The producer of this batch observed cancellation and closed
			// its channel early; the merged prefix ends here.
			break
		}
		s.emit(batch, yield)
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
	if s.next == first+count {
		return nil
	}
	return ctx.Err()
}

// emit yields a batch's sets in order and advances the stream past them.
func (s *Stream) emit(b flatBatch, yield func(nodes []int32)) {
	start := 0
	for _, end := range b.ends {
		yield(b.data[start:end:end])
		start = end
	}
	s.next += len(b.ends)
}
