// Package rrset implements the reverse-reachable (RR) set machinery behind
// the paper's scalable algorithms TI-CARM and TI-CSRM (Section 4):
// random RR-set sampling under ad-specific arc probabilities (Borgs et
// al., SODA 2014), a growable collection with coverage bookkeeping for
// greedy seed selection, and TIM's sample-size determination — the
// threshold L(s, ε) of Eq. 8 and the KPT estimation of a lower bound on
// OPT_s (Tang et al., SIGMOD 2014).
package rrset

import (
	"math"

	"repro/internal/graph"
	"repro/internal/xmath"
	"repro/internal/xrand"
)

// Sampler draws random RR sets for one ad.
//
// Under the IC model a random RR set is generated by sampling a live-edge
// possible world and collecting every node that can reach a uniformly
// random target. Sampling lazily — flipping each in-arc's coin only when
// the reverse BFS first examines it — yields the same distribution without
// materializing the world.
type Sampler struct {
	g     *graph.Graph
	probs []float32 // in-CSR order (SampleProbs)
	rng   *xrand.RNG
	sc    scratch
	buf   []int32 // reused set buffer for the arena-ingest AddFrom path
}

// NewSampler builds a sampler for the given graph, ad-specific arc
// probabilities (aligned with canonical edge IDs) and RNG. The sampler
// owns a private scratch slot and a private in-CSR-order copy of probs;
// components sampling for many ads share scratch through a Pool and
// probabilities through SampleProbs instead (see NewPool).
func NewSampler(g *graph.Graph, probs []float32, rng *xrand.RNG) *Sampler {
	return &Sampler{
		g:     g,
		probs: NewSampleProbs(g, probs).p,
		rng:   rng,
		sc:    scratch{visited: make([]int64, g.NumNodes())},
	}
}

// Sample draws one random RR set. It returns the member nodes (the first
// element is the uniformly chosen target) and the set's width — the total
// number of arcs entering its members, the quantity TIM's KPT estimator
// calls w(R). The returned slice is freshly allocated and owned by the
// caller.
func (s *Sampler) Sample() (nodes []int32, width int64) {
	return s.sc.sample(s.g, s.probs, s.rng)
}

// Collection stores RR sets with the inverted index and coverage counters
// used by the greedy selection loop of Algorithm 2. Covered sets are
// tombstoned rather than deleted, matching line 14 ("remove RR-sets that
// are covered") with O(1) amortized updates.
//
// Storage is a chunked flat arena: all member nodes live in one growing
// []int32 buffer addressed by a []uint32 offset table (CSR-style, like
// internal/dataset's graph snapshots), the inverted index is per-node
// block chains in a second flat arena, coverage tombstones are a packed
// bitset, and marginal coverage lives in an indexed bucket queue. Adding
// a set therefore performs zero per-set heap allocations once the arenas
// are warm, and MemoryFootprint is O(1) arithmetic over running
// capacities instead of an O(θ) rescan.
type Collection struct {
	n        int32
	data     []int32  // member-node arena: all sets concatenated
	offsets  []uint32 // set id -> start in data; len = Size()+1
	idx      nodeIndex
	covered  bitset
	bq       bucketQueue // live marginal coverage + indexed max
	nCovered int

	// setMark/markEpoch are CoverageOf's reusable epoch-stamped scratch
	// (the Sampler.visited trick): setMark[id] == markEpoch means set id
	// was already counted for the current query.
	setMark   []int64
	markEpoch int64
}

// NewCollection creates an empty collection over n nodes.
func NewCollection(n int32) *Collection {
	c := &Collection{n: n, offsets: make([]uint32, 1, 64)}
	c.idx.init(n)
	c.bq.init(n)
	return c
}

// Add appends one RR set (copying it into the arena) and indexes it.
func (c *Collection) Add(set []int32) {
	id := int32(len(c.offsets)) - 1
	c.data = grow(c.data, len(set))
	c.data = append(c.data, set...)
	c.offsets = grow(c.offsets, 1)
	c.offsets = append(c.offsets, uint32(len(c.data)))
	c.covered.appendZero()
	for _, v := range set {
		c.idx.push(v, id)
		c.bq.inc(v)
	}
}

// AddFrom samples count RR sets from the sampler into the collection,
// drawing each set into a reused scratch buffer (no per-set allocation).
func (c *Collection) AddFrom(s *Sampler, count int) {
	for i := 0; i < count; i++ {
		var w int64
		s.buf, w = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
		_ = w
		c.Add(s.buf)
	}
}

// Reset empties the collection — sets, index and coverage — while
// keeping every arena's capacity, so a refill of comparable size
// allocates nothing.
func (c *Collection) Reset() {
	c.data = c.data[:0]
	c.offsets = c.offsets[:1]
	c.idx.reset()
	c.covered.reset()
	c.bq.reset()
	c.nCovered = 0
}

// ResetCoverage clears every tombstone and restores all marginal
// coverage counts to their no-seeds state, keeping the stored sets. It
// lets greedy passes that used to run on a throwaway copy of the
// collection (IMM's lower-bound search, BudgetedGreedy's two rules) run
// in place instead. O(n + total set members).
func (c *Collection) ResetCoverage() {
	c.covered.clear()
	c.nCovered = 0
	c.bq.reset()
	for _, v := range c.data {
		c.bq.inc(v)
	}
}

// Size returns the total number of sets ever added (θ in the paper —
// covered sets still count toward the estimation denominator).
func (c *Collection) Size() int { return len(c.offsets) - 1 }

// NumCovered returns how many sets are currently covered by chosen seeds.
func (c *Collection) NumCovered() int { return c.nCovered }

// CovCount returns the marginal coverage of node v: the number of live
// sets that choosing v as a seed would newly cover.
func (c *Collection) CovCount(v int32) int32 { return c.bq.count[v] }

// CoverBy marks every live set containing v as covered and updates all
// counters. It returns the number of sets newly covered (v's marginal
// coverage at call time). Allocation-free.
func (c *Collection) CoverBy(v int32) int {
	newly := 0
	it := c.idx.iter(v)
	for id, ok := it.next(); ok; id, ok = it.next() {
		if c.covered.get(id) {
			continue
		}
		c.covered.set(id)
		newly++
		for _, x := range c.data[c.offsets[id]:c.offsets[id+1]] {
			c.bq.dec(x)
		}
	}
	c.nCovered += newly
	return newly
}

// MaxCovCount returns the maximum marginal coverage over nodes for which
// eligible returns true, and the first (lowest-ID) node attaining it.
// When no node is eligible it returns (-1, 0). A nil eligible means all
// nodes. Answered from the bucket queue — O(size of the top buckets)
// instead of the former O(n) scan — with the linear scan's exact
// tie-break semantics (pinned by the randomized equivalence suite).
func (c *Collection) MaxCovCount(eligible func(v int32) bool) (node int32, count int32) {
	return c.bq.maxEligible(eligible)
}

// CoverageOf returns how many sets (covered or not) contain at least one
// node of S — the raw coverage used for spread estimation of a whole seed
// set: σ̂(S) = n · CoverageOf(S) / Size().
//
// It walks the inverted index of S's members and counts distinct set IDs
// with an epoch-stamped mark array reused across calls — O(Σ_{v∈S}
// |nodeSets[v]|) per query and allocation-free once warm, where the old
// implementation built a fresh membership map and scanned every stored
// set.
func (c *Collection) CoverageOf(S []int32) int {
	if len(S) == 0 {
		return 0
	}
	if len(c.setMark) < c.Size() {
		c.setMark = make([]int64, c.Size())
		c.markEpoch = 0
	}
	c.markEpoch++
	hit := 0
	for _, v := range S {
		it := c.idx.iter(v)
		for id, ok := it.next(); ok; id, ok = it.next() {
			if c.setMark[id] != c.markEpoch {
				c.setMark[id] = c.markEpoch
				hit++
			}
		}
	}
	return hit
}

// SpreadEstimate returns n · CoverageOf(S) / Size(), the standard unbiased
// spread estimate, or 0 for an empty collection.
func (c *Collection) SpreadEstimate(S []int32) float64 {
	if c.Size() == 0 {
		return 0
	}
	return float64(c.n) * float64(c.CoverageOf(S)) / float64(c.Size())
}

// NumSetsContaining returns how many stored sets (covered included)
// contain v — the inverted-index degree of the node.
func (c *Collection) NumSetsContaining(v int32) int32 { return c.idx.deg[v] }

// Set returns the member nodes of set id. The slice aliases the arena
// and stays valid across further adds only until the arena grows; treat
// it as a read-only transient.
func (c *Collection) Set(id int32) []int32 {
	return c.data[c.offsets[id]:c.offsets[id+1]:c.offsets[id+1]]
}

// IsCovered reports whether set id is covered.
func (c *Collection) IsCovered(id int32) bool { return c.covered.get(id) }

// MemoryFootprint returns the collection's heap usage in bytes (set
// arena, offset table, inverted index, coverage bitset, bucket queue),
// used for the Table 3 reproduction. O(1): pure arithmetic over running
// capacities — the pre-arena layout had to rescan every per-set and
// per-node slice.
func (c *Collection) MemoryFootprint() int64 {
	return int64(cap(c.data))*4 + int64(cap(c.offsets))*4 +
		c.idx.bytes() + c.covered.bytes() + c.bq.bytes() +
		int64(len(c.setMark))*8
}

// Threshold computes L(s, ε) from Eq. 8 of the paper: the number of RR
// sets sufficient to estimate the spread of any seed set of size ≤ s
// within ±(ε/2)·OPT_s with probability ≥ 1 − n^−ℓ / C(n,s):
//
//	L(s,ε) = (8+2ε)·n·(ℓ·ln n + ln C(n,s) + ln 2) / (OPT_s · ε²)
//
// optS is (a lower bound on) OPT_s, typically from KptEstimate.
func Threshold(n int64, s int, eps, ell, optS float64) float64 {
	if n < 1 || s < 1 || eps <= 0 || optS <= 0 {
		panic("rrset: Threshold needs n ≥ 1, s ≥ 1, eps > 0, optS > 0")
	}
	num := (8 + 2*eps) * float64(n) *
		(ell*math.Log(float64(n)) + xmath.LogChoose(int(n), s) + math.Log(2))
	return num / (optS * eps * eps)
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
			var width int64
			s.buf, width = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
			yield(width)
		}
		return nil
	}, m, n, size, ell)
	return kpt
}

// kptEstimate is the KptEstimation loop shared by the sequential and
// parallel front ends. sampleN must hand back the widths of count fresh
// RR sets in a deterministic order — the κ sums are accumulated in
// emission order, so both front ends produce identical estimates for
// identical width streams. A non-nil error from sampleN (cancellation)
// aborts the loop and is returned as is.
func kptEstimate(sampleN func(count int, yield func(width int64)) error, m, n int64, size int, ell float64) (float64, error) {
	if n <= 1 || m == 0 {
		return 1, nil
	}
	log2n := math.Log2(float64(n))
	rounds := int(log2n)
	base := 6*ell*math.Log(float64(n)) + 6*math.Log(math.Max(log2n, 2))
	for i := 1; i < rounds; i++ {
		ci := int(base * math.Pow(2, float64(i)))
		if ci < 1 {
			ci = 1
		}
		var sum float64
		if err := sampleN(ci, func(width int64) {
			sum += 1 - math.Pow(1-float64(width)/float64(m), float64(size))
		}); err != nil {
			return 0, err
		}
		if sum/float64(ci) > 1/math.Pow(2, float64(i)) {
			return float64(n) * sum / (2 * float64(ci)), nil
		}
	}
	return 1, nil
}
