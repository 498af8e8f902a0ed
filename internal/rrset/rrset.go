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

	"repro/internal/xmath"
)

// Threshold computes L(s, ε) from Eq. 8 of the paper: the number of RR
// sets sufficient to estimate the spread of any seed set of size ≤ s
// within ±(ε/2)·OPT_s with probability ≥ 1 − n^−ℓ / C(n,s):
//
//	L(s,ε) = (8+2ε)·n·(ℓ·ln n + ln C(n,s) + ln 2) / (OPT_s · ε²)
//
// optS is (a lower bound on) OPT_s, typically from KPT estimation.
func Threshold(n int64, s int, eps, ell, optS float64) float64 {
	if n < 1 || s < 1 || eps <= 0 || optS <= 0 {
		panic("rrset: Threshold needs n ≥ 1, s ≥ 1, eps > 0, optS > 0")
	}
	num := (8 + 2*eps) * float64(n) *
		(ell*math.Log(float64(n)) + xmath.LogChoose(int(n), s) + math.Log(2))
	return num / (optS * eps * eps)
}

// kptEstimate implements TIM's KptEstimation (Tang et al. 2014, Alg. 2):
// a lower bound on OPT_s that holds with probability ≥ 1 − n^−ℓ. It draws
// geometrically growing batches of RR sets through sampleN; for each set,
// κ(R) = 1 − (1 − w(R)/m)^s estimates the probability that a random
// size-s seed set covers R. The first batch whose mean exceeds 2^−i yields
// KPT = n · mean / 2; when no batch succeeds the estimate falls back to 1,
// since every seed set reaches at least its own seed.
//
// sampleN must hand back the widths of count fresh RR sets in a
// deterministic order — the κ sums are accumulated in emission order, so
// every front end (a fresh stream, a carried sample) produces identical
// estimates for identical width streams. A non-nil error from sampleN
// (cancellation) aborts the loop and is returned as is.
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
