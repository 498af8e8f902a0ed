package rrset

import (
	"context"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The sequential Sampler and the wrappers below are used by tests only.
// The Sampler flips one coin per arc on every node and is the reference
// distribution streams are held against; the wrappers spell common test
// setups over the production API.

// Sampler draws random RR sets for one ad.
//
// Under the IC model a random RR set is generated by sampling a live-edge
// possible world and collecting every node that can reach a uniformly
// random target. Sampling lazily — flipping each in-arc's coin only when
// the reverse BFS first examines it — yields the same distribution without
// materializing the world.
type Sampler struct {
	g     *graph.Graph
	probs SampleProbs // per-arc path on every node
	rng   *xrand.RNG
	sc    scratch
	buf   []int32 // reused set buffer for the arena-ingest AddFrom path
}

// NewSampler builds a sampler for the given graph, ad-specific arc
// probabilities (aligned with canonical edge IDs) and RNG. The sampler
// owns a private scratch slot and a private in-CSR-order copy of probs;
// components sampling for many ads share scratch through a Pool and
// probabilities through SampleProbs instead (see NewPool).
//
// A Sampler flips one coin per examined arc on every node, never taking
// the kernel's geometric skip path, so it stays the reference that
// tests hold streams' distribution against.
func NewSampler(g *graph.Graph, probs []float32, rng *xrand.RNG) *Sampler {
	return &Sampler{
		g:     g,
		probs: perArcProbs(g, probs),
		rng:   rng,
		sc:    scratch{visited: make([]int64, g.NumNodes())},
	}
}

// Sample draws one random RR set. It returns the member nodes (the first
// element is the uniformly chosen target) and the set's width — the total
// number of arcs entering its members, the quantity TIM's KPT estimator
// calls w(R). The returned slice is freshly allocated and owned by the
// caller.
func (s *Sampler) Sample() (nodes []int32, w int64) {
	nodes = s.sc.sampleInto(nil, s.g, s.probs, s.rng)
	return nodes, width(s.g, nodes)
}

// KptEstimate implements TIM's KptEstimation (Tang et al. 2014, Alg. 2):
// a lower bound on OPT_s that holds with probability ≥ 1 − n^−ℓ. It draws
// geometrically growing batches of RR sets from the sampler; for each set,
// κ(R) = 1 − (1 − w(R)/m)^s estimates the probability that a random
// size-s seed set covers R. The first batch whose mean exceeds 2^−i yields
// KPT = n · mean / 2. Falls back to 1 (every seed set reaches at least its
// own seed... per-seed spread ≥ 1) when no batch succeeds.
func KptEstimate(s *Sampler, m, n int64, size int, ell float64) float64 {
	kpt, _ := kptEstimate(func(count int, yield func(width int64)) error {
		for i := 0; i < count; i++ {
			s.buf = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
			yield(width(s.g, s.buf))
		}
		return nil
	}, m, n, size, ell)
	return kpt
}

// AddFrom samples count RR sets into the universe through a reused
// scratch buffer (no per-set allocation).
func (u *Universe) AddFrom(s *Sampler, count int) {
	for i := 0; i < count; i++ {
		s.buf = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
		u.Add(s.buf)
	}
	u.index()
}

// NumSetsContaining returns how many stored sets contain v — the
// inverted-index degree of the node, and the per-node cost bound of
// Invalidate.
func (u *Universe) NumSetsContaining(v int32) int32 { return u.index().deg[v] }

// InvalidateAll marks every stored set stale, returning how many were
// newly marked. Equivalent to (and tested against) a full rebuild once
// Repair runs.
func (u *Universe) InvalidateAll() int {
	newly := 0
	for id := int32(0); int(id) < u.Size(); id++ {
		if !u.stale.get(id) {
			u.stale.set(id)
			newly++
		}
	}
	u.nStale += newly
	return newly
}

// NewView creates a view over the universe's current contents.
func NewView(u *Universe) *View {
	return NewViewPrefix(u, u.Size())
}

// Sync integrates sets added to the universe since the last sync and
// returns how many were integrated. New sets start uncovered, so every
// member node's marginal coverage grows.
func (v *View) Sync() int {
	return v.SyncTo(v.u.Size())
}

// Repair resamples every stale slot in place: sample is called once per
// stale slot (ascending), appending the replacement set's members onto
// dst and returning the extended slice. Returns the number of slots
// resampled. See repair for the cost and the Views it invalidates.
func (u *Universe) Repair(sample func(slot int32, dst []int32) []int32) int {
	return u.repair(sample, 1)
}

// AddFromParallel samples count RR sets from the stream into the
// universe. The copy into the arena tail happens on the caller's
// goroutine while the pool's workers keep sampling, so the universe
// needs no internal locking; the batch is then indexed as one segment
// on up to the pool's Workers goroutines. On a single-worker pool it is
// allocation-free once the arenas are warm.
func (u *Universe) AddFromParallel(src *Stream, count int) {
	u.AddFromParallelCtx(context.Background(), src, count)
}

// SampleN draws count RR sets and hands each set's member nodes to
// yield, which runs on the calling goroutine. The node slice
// is a window into a reused batch buffer: it is valid only for the
// duration of the yield call and must be copied to be retained (the
// arena-backed Universe ingest path copies into its flat storage). The
// sets are the stream's next count slots, in slot order.
func (s *Stream) SampleN(count int, yield func(nodes []int32)) {
	s.SampleNCtx(context.Background(), count, yield)
}
