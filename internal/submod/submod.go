// Package submod is the submodular-optimization toolkit behind the paper's
// theory: set functions over small ground sets, curvature (Definition 4),
// independence systems with the submodular knapsack family, lower and
// upper rank (Definition 5), a brute-force maximizer, and Theorem 2's
// approximation bound. The matroids, the axiom checks of Definitions 1–2
// and Lemmas 1–2, and the generic greedy live in the package's tests.
//
// Ground sets are [0, N) with N ≤ 64 and subsets are bitmasks, which keeps
// the exhaustive procedures (rank computation, brute force) simple and
// fast. The production-scale algorithms live in internal/core; this
// package provides the ground truth they are tested against.
package submod

import (
	"fmt"
	"math"
	"math/bits"
)

// Mask is a subset of a ground set of at most 64 elements.
type Mask uint64

// Has reports whether element e is in the mask.
func (m Mask) Has(e int) bool { return m&(1<<uint(e)) != 0 }

// Add returns m ∪ {e}.
func (m Mask) Add(e int) Mask { return m | 1<<uint(e) }

// Remove returns m \ {e}.
func (m Mask) Remove(e int) Mask { return m &^ (1 << uint(e)) }

// Count returns |m|.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Elements returns the members of m in increasing order.
func (m Mask) Elements() []int {
	out := make([]int, 0, m.Count())
	for x := uint64(m); x != 0; x &= x - 1 {
		out = append(out, bits.TrailingZeros64(x))
	}
	return out
}

// FullMask returns the mask of the whole ground set [0, n).
func FullMask(n int) Mask {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("submod: ground set size %d out of [0,64]", n))
	}
	if n == 64 {
		return Mask(^uint64(0))
	}
	return Mask(1<<uint(n) - 1)
}

// Function is a set function on the ground set [0, N).
type Function struct {
	N    int
	Eval func(Mask) float64
}

// Marginal returns f(e | S) = f(S ∪ {e}) − f(S).
func (f Function) Marginal(S Mask, e int) float64 {
	return f.Eval(S.Add(e)) - f.Eval(S)
}

// TotalCurvature computes κ_f = 1 − min_j f(j | V∖{j}) / f({j})
// (Definition 4). Elements with f({j}) = 0 are skipped (their ratio is
// taken as 1, contributing no curvature).
func TotalCurvature(f Function) float64 {
	return CurvatureWrt(f, FullMask(f.N))
}

// CurvatureWrt computes κ_f(S) = 1 − min_{j∈S} f(j | S∖{j}) / f({j})
// (Definition 4).
func CurvatureWrt(f Function, S Mask) float64 {
	minRatio := 1.0
	for _, j := range S.Elements() {
		fj := f.Eval(Mask(0).Add(j))
		if fj == 0 {
			continue
		}
		ratio := f.Marginal(S.Remove(j), j) / fj
		if ratio < minRatio {
			minRatio = ratio
		}
	}
	return 1 - minRatio
}

// CABound is Theorem 2's approximation guarantee for CA-GREEDY:
// (1/κ)·[1 − ((R−κ)/R)^r], with the κ→0 limit r/R... evaluated
// continuously (the limit as κ→0 equals r/R when r ≤ R).
func CABound(kappa float64, r, R int) float64 {
	if R <= 0 || r <= 0 {
		panic("submod: CABound needs positive ranks")
	}
	if kappa < 1e-12 {
		return float64(r) / float64(R)
	}
	return (1 - math.Pow((float64(R)-kappa)/float64(R), float64(r))) / kappa
}
