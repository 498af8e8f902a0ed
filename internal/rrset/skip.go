package rrset

import "math"

// lnTable[j] holds ln c_j and 1/c_j for c_j = 1 + (j+1/2)/256, the centre
// of the j-th of 256 equal slices of [1, 2): 4 KB, built from math.Log.
var lnTable = func() (t [256]struct{ ln, inv float64 }) {
	for j := range t {
		c := 1 + (float64(j)+0.5)/256
		t[j].ln, t[j].inv = math.Log(c), 1/c
	}
	return t
}()

// lnUniform returns ln U for the skip path's uniform U = (x>>11 + 1)/2^53
// in (0, 1] with an absolute error below 2.5e-9, for a fraction of
// math.Log's cost.
//
// With k = x>>11 + 1 = 2^e·m, m in [1, 2), and j the top 8 bits of m's
// fraction, ln U = (e−53)·ln 2 + ln c_j + ln(1+r) for r = m/c_j − 1,
// |r| ≤ 2^-9/c_j < 2^-9. ln(1+r) is taken as r − r²/2, which is off by at
// most |r|³/(3(1−|r|)) < 2.48e-9. Rounding adds less than 2e-14: every
// operand is below 37 in magnitude, the table entries are within an ulp,
// m·(1/c_j) − 1 is exact but for the product's rounding, and the few
// remaining operations round by 2^-53 of their result each. A fused
// multiply-add rounds once where the two operations it replaces round
// twice, so the bound holds whether or not the compiler fuses them.
func lnUniform(x uint64) float64 {
	b := math.Float64bits(float64(int64(x>>11 + 1)))
	t := &lnTable[b>>44&0xff]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*t.inv - 1
	return float64(int64(b>>52)-1023-53)*math.Ln2 + t.ln + r - r*r/2
}

// skipMargin returns the margin by which the kernel's gap g =
// lnUniform(x)·inv must clear the decision points of the rule's gap
// G = math.Log(U)·inv (inv = 1/ln(1−p) < 0) for g to decide what G
// decides: 1e-8·(1 − inv).
//
// math.Log is within an ulp of ln U (allowed 4 here, under 3.3e-14 for
// |ln U| ≤ 36.8), and each of the two products rounds by 2^-53 of a
// value below 36.8·|inv|, so |g − G| < |inv|·(2.5e-9 + 3.3e-14 + 8.2e-15)
// < 2.6e-9·|inv|. The kernel's own comparisons round fl(rem + margin) and
// fl(1 − margin) by under 5e-15·(1 + |inv|) where they matter: a break
// needs g ≥ fl(rem + margin), and g < 36.8·|inv|·(1 + 2^-52). The margin
// exceeds these errors together more than threefold, so:
//   - g ≥ fl(rem + margin) implies G > rem: both stop;
//   - otherwise g < rem + margin (rounding is monotone), and when
//     n = int(g) and f = g − n (exact) satisfy margin ≤ f ≤ 1 − margin,
//     n < G < n+1 and n < rem: both step n arcs;
//   - any other g (within the margin of an integer, slightly negative, or
//     margin > 1/2 at p ≲ 2e-8) falls back to G itself.
//
// The fallback's share of draws is about 2·margin, 2e-8·(1+d) at p = 1/d.
func skipMargin(inv float64) float64 { return 1e-8 * (1 - inv) }
