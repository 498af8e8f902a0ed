package submod

import "math"

// IndependenceOracle answers membership queries against a family of
// "independent" (feasible) subsets of the ground set [0, N).
type IndependenceOracle interface {
	// NumElements returns the ground set size.
	NumElements() int
	// Independent reports whether the subset is in the family.
	Independent(Mask) bool
}

// Knapsack is the (possibly submodular) knapsack family
// {X : Cost(X) ≤ Budget}. With a submodular Cost this is the paper's
// submodular knapsack constraint.
type Knapsack struct {
	Cost   Function
	Budget float64
}

// NumElements implements IndependenceOracle.
func (k Knapsack) NumElements() int { return k.Cost.N }

// Independent implements IndependenceOracle.
func (k Knapsack) Independent(m Mask) bool { return k.Cost.Eval(m) <= k.Budget }

// Ranks computes the lower rank r and upper rank R of the independence
// system (Definition 5): the sizes of the smallest and largest *maximal*
// independent sets. Cost O(2^N · N).
func Ranks(o IndependenceOracle) (r, R int) {
	n := o.NumElements()
	full := FullMask(n)
	r, R = -1, -1
	for S := Mask(0); ; S++ {
		if o.Independent(S) {
			maximal := true
			for e := 0; e < n; e++ {
				if !S.Has(e) && o.Independent(S.Add(e)) {
					maximal = false
					break
				}
			}
			if maximal {
				c := S.Count()
				if r < 0 || c < r {
					r = c
				}
				if c > R {
					R = c
				}
			}
		}
		if S == full {
			break
		}
	}
	return r, R
}

// BruteForceMax returns an optimal independent set and its value. Cost
// O(2^N); intended for N ≤ ~20.
func BruteForceMax(f Function, o IndependenceOracle) (Mask, float64) {
	full := FullMask(f.N)
	var best Mask
	bestVal := math.Inf(-1)
	for S := Mask(0); ; S++ {
		if o.Independent(S) {
			if v := f.Eval(S); v > bestVal {
				best, bestVal = S, v
			}
		}
		if S == full {
			break
		}
	}
	return best, bestVal
}
