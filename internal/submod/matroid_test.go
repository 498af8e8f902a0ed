package submod

import (
	"fmt"
	"math"
)

// UniformMatroid is the family {X : |X| ≤ K}.
type UniformMatroid struct {
	N, K int
}

// NumElements implements IndependenceOracle.
func (u UniformMatroid) NumElements() int { return u.N }

// Independent implements IndependenceOracle.
func (u UniformMatroid) Independent(m Mask) bool { return m.Count() <= u.K }

// PartitionMatroid is the family {X : |X ∩ E_i| ≤ d_i for every part i}
// (Definition 3). Part[e] gives the part index of element e; Cap[i] is
// d_i.
type PartitionMatroid struct {
	Part []int
	Cap  []int
}

// NumElements implements IndependenceOracle.
func (p PartitionMatroid) NumElements() int { return len(p.Part) }

// Independent implements IndependenceOracle.
func (p PartitionMatroid) Independent(m Mask) bool {
	counts := make([]int, len(p.Cap))
	for _, e := range m.Elements() {
		i := p.Part[e]
		counts[i]++
		if counts[i] > p.Cap[i] {
			return false
		}
	}
	return true
}

// SeedDisjointnessMatroid builds the paper's Lemma 1 partition matroid
// over the ground set of (node, advertiser) pairs: element e = ad*numNodes
// + node, and every node's part has capacity 1 (each user endorses at most
// one ad).
func SeedDisjointnessMatroid(numNodes, numAds int) PartitionMatroid {
	if numNodes*numAds > 64 {
		panic("submod: ground set exceeds 64 elements; use internal/core for large instances")
	}
	part := make([]int, numNodes*numAds)
	for ad := 0; ad < numAds; ad++ {
		for v := 0; v < numNodes; v++ {
			part[ad*numNodes+v] = v
		}
	}
	cap_ := make([]int, numNodes)
	for i := range cap_ {
		cap_[i] = 1
	}
	return PartitionMatroid{Part: part, Cap: cap_}
}

// Intersection is the family of sets independent in every constituent
// oracle — the RM problem's feasible family C (one partition matroid plus
// h submodular knapsacks).
type Intersection []IndependenceOracle

// NumElements implements IndependenceOracle.
func (x Intersection) NumElements() int {
	if len(x) == 0 {
		return 0
	}
	return x[0].NumElements()
}

// Independent implements IndependenceOracle.
func (x Intersection) Independent(m Mask) bool {
	for _, o := range x {
		if !o.Independent(m) {
			return false
		}
	}
	return true
}

// CheckIndependenceSystem exhaustively verifies Definition 1: the family
// is non-empty (contains ∅) and downward closed. Cost O(2^N · N).
func CheckIndependenceSystem(o IndependenceOracle) error {
	n := o.NumElements()
	if !o.Independent(0) {
		return fmt.Errorf("submod: family does not contain the empty set")
	}
	full := FullMask(n)
	for S := Mask(0); ; S++ {
		if o.Independent(S) {
			for _, e := range S.Elements() {
				if !o.Independent(S.Remove(e)) {
					return fmt.Errorf("submod: downward closure fails: %v independent but %v not",
						S.Elements(), S.Remove(e).Elements())
				}
			}
		}
		if S == full {
			break
		}
	}
	return nil
}

// CheckMatroidAxioms exhaustively verifies Definitions 1–2: independence
// system plus the augmentation axiom. Cost O(4^N); intended for N ≤ ~10.
func CheckMatroidAxioms(o IndependenceOracle) error {
	if err := CheckIndependenceSystem(o); err != nil {
		return err
	}
	n := o.NumElements()
	full := FullMask(n)
	var indep []Mask
	for S := Mask(0); ; S++ {
		if o.Independent(S) {
			indep = append(indep, S)
		}
		if S == full {
			break
		}
	}
	for _, X := range indep {
		for _, Y := range indep {
			if Y.Count() <= X.Count() {
				continue
			}
			ok := false
			for _, e := range Y.Elements() {
				if !X.Has(e) && o.Independent(X.Add(e)) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("submod: augmentation fails for X=%v, Y=%v",
					X.Elements(), Y.Elements())
			}
		}
	}
	return nil
}

// Greedy runs the cost-agnostic greedy of Algorithm 1 abstractly: at each
// step pick the ground element with maximum marginal gain in f; if adding
// it keeps the set independent, take it, otherwise remove it from the
// ground set. Returns the greedy solution.
func Greedy(f Function, o IndependenceOracle) Mask {
	n := f.N
	alive := FullMask(n)
	var S Mask
	for alive != 0 {
		best, bestGain := -1, math.Inf(-1)
		for _, e := range alive.Elements() {
			if g := f.Marginal(S, e); g > bestGain {
				best, bestGain = e, g
			}
		}
		if o.Independent(S.Add(best)) {
			S = S.Add(best)
		}
		alive = alive.Remove(best)
	}
	return S
}
