// Package rrset implements the reverse-reachable (RR) set machinery behind
// the paper's scalable algorithms TI-CARM and TI-CSRM (Section 4):
// random RR-set sampling under ad-specific arc probabilities (Borgs et
// al., SODA 2014), an append-only universe with per-advertiser coverage
// views for greedy seed selection, and TIM's sample-size determination
// — the threshold L(s, ε) of Eq. 8 and the KPT estimation of a lower
// bound on OPT_s (Tang et al., SIGMOD 2014).
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
			s.buf = s.sc.sampleInto(s.buf[:0], s.g, s.probs, s.rng)
			yield(width(s.g, s.buf))
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
