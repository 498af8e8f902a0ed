package submod

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Modular builds the modular (additive) function with the given weights.
func Modular(weights []float64) Function {
	w := append([]float64(nil), weights...)
	return Function{N: len(w), Eval: func(m Mask) float64 {
		var s float64
		for x := uint64(m); x != 0; x &= x - 1 {
			s += w[bits.TrailingZeros64(x)]
		}
		return s
	}}
}

// Coverage builds the weighted coverage function: element e covers the
// item set covers[e]; items carry the given weights (nil means unit
// weights). Coverage functions are the canonical monotone submodular
// family and mirror RR-set coverage.
func Coverage(n int, covers [][]int, weights []float64) Function {
	if len(covers) != n {
		panic("submod: Coverage needs one item list per element")
	}
	numItems := 0
	for _, c := range covers {
		for _, it := range c {
			if it+1 > numItems {
				numItems = it + 1
			}
		}
	}
	w := weights
	if w == nil {
		w = make([]float64, numItems)
		for i := range w {
			w[i] = 1
		}
	}
	return Function{N: n, Eval: func(m Mask) float64 {
		seen := make([]bool, numItems)
		var total float64
		for x := uint64(m); x != 0; x &= x - 1 {
			for _, it := range covers[bits.TrailingZeros64(x)] {
				if !seen[it] {
					seen[it] = true
					total += w[it]
				}
			}
		}
		return total
	}}
}

// IsMonotone exhaustively checks f(S) ≤ f(S ∪ {e}) for all S, e. Cost
// O(2^N · N); intended for N ≤ ~16.
func IsMonotone(f Function, tol float64) bool {
	full := FullMask(f.N)
	for S := Mask(0); ; S++ {
		fs := f.Eval(S)
		for e := 0; e < f.N; e++ {
			if S.Has(e) {
				continue
			}
			if f.Eval(S.Add(e)) < fs-tol {
				return false
			}
		}
		if S == full {
			break
		}
	}
	return true
}

// IsSubmodular exhaustively checks the diminishing-returns property
// f(e|S) ≥ f(e|T) for all S ⊆ T and e ∉ T. Cost O(3^N · N); intended for
// N ≤ ~12.
func IsSubmodular(f Function, tol float64) bool {
	full := uint64(FullMask(f.N))
	// Enumerate pairs S ⊆ T by iterating T and its submasks.
	for T := uint64(0); ; T++ {
		for S := T; ; S = (S - 1) & T {
			for e := 0; e < f.N; e++ {
				if Mask(T).Has(e) {
					continue
				}
				if f.Marginal(Mask(S), e) < f.Marginal(Mask(T), e)-tol {
					return false
				}
			}
			if S == 0 {
				break
			}
		}
		if T == full {
			break
		}
	}
	return true
}

func TestMaskBasics(t *testing.T) {
	var m Mask
	m = m.Add(3).Add(5)
	if !m.Has(3) || !m.Has(5) || m.Has(4) {
		t.Error("Add/Has broken")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
	m = m.Remove(3)
	if m.Has(3) || !m.Has(5) {
		t.Error("Remove broken")
	}
	els := Mask(0).Add(1).Add(4).Add(7).Elements()
	if len(els) != 3 || els[0] != 1 || els[1] != 4 || els[2] != 7 {
		t.Errorf("Elements = %v", els)
	}
	if FullMask(3) != 7 {
		t.Errorf("FullMask(3) = %d, want 7", FullMask(3))
	}
	if FullMask(0) != 0 {
		t.Error("FullMask(0) should be empty")
	}
}

func TestModular(t *testing.T) {
	f := Modular([]float64{1, 2, 4})
	if got := f.Eval(FullMask(3)); got != 7 {
		t.Errorf("modular full = %v, want 7", got)
	}
	if got := f.Marginal(Mask(0).Add(0), 2); got != 4 {
		t.Errorf("modular marginal = %v, want 4", got)
	}
	if k := TotalCurvature(f); k != 0 {
		t.Errorf("modular curvature = %v, want 0", k)
	}
	if !IsMonotone(f, 1e-12) || !IsSubmodular(f, 1e-12) {
		t.Error("modular function must be monotone and submodular")
	}
}

func randomCoverage(rng *xrand.RNG, n, items int) Function {
	covers := make([][]int, n)
	for e := range covers {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			covers[e] = append(covers[e], rng.Intn(items))
		}
	}
	w := make([]float64, items)
	for i := range w {
		w[i] = rng.Float64() + 0.1
	}
	return Coverage(n, covers, w)
}

func TestCoverageMonotoneSubmodular(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		f := randomCoverage(rng, 6, 8)
		if !IsMonotone(f, 1e-12) {
			t.Fatal("coverage function not monotone")
		}
		if !IsSubmodular(f, 1e-12) {
			t.Fatal("coverage function not submodular")
		}
	}
}

func TestCoverageValues(t *testing.T) {
	// Elements 0,1 cover overlapping items.
	f := Coverage(2, [][]int{{0, 1}, {1, 2}}, nil)
	if got := f.Eval(Mask(0).Add(0)); got != 2 {
		t.Errorf("f({0}) = %v, want 2", got)
	}
	if got := f.Eval(FullMask(2)); got != 3 {
		t.Errorf("f({0,1}) = %v, want 3 (overlap counted once)", got)
	}
}

// Curvature ordering (Iyer et al.): κ_f(S) ≤ κ_f ≤ 1 for monotone
// submodular f.
func TestCurvatureOrdering(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		f := randomCoverage(rng, 6, 6)
		total := TotalCurvature(f)
		if total < -1e-12 || total > 1+1e-12 {
			t.Fatalf("total curvature %v out of [0,1]", total)
		}
		S := Mask(rng.Uint64n(uint64(FullMask(6)) + 1))
		if S == 0 {
			continue
		}
		ks := CurvatureWrt(f, S)
		if ks > total+1e-9 {
			t.Errorf("curvature wrt S %v exceeds total %v (S=%v)", ks, total, S.Elements())
		}
	}
}

func TestUniformMatroid(t *testing.T) {
	u := UniformMatroid{N: 5, K: 2}
	if err := CheckMatroidAxioms(u); err != nil {
		t.Fatalf("uniform matroid fails axioms: %v", err)
	}
	r, R := Ranks(u)
	if r != 2 || R != 2 {
		t.Errorf("uniform matroid ranks = (%d,%d), want (2,2)", r, R)
	}
}

func TestPartitionMatroid(t *testing.T) {
	// Two parts {0,1,2} and {3,4} with caps 1 and 2.
	p := PartitionMatroid{Part: []int{0, 0, 0, 1, 1}, Cap: []int{1, 2}}
	if err := CheckMatroidAxioms(p); err != nil {
		t.Fatalf("partition matroid fails axioms: %v", err)
	}
	if !p.Independent(Mask(0).Add(0).Add(3).Add(4)) {
		t.Error("feasible set rejected")
	}
	if p.Independent(Mask(0).Add(0).Add(1)) {
		t.Error("over-cap set accepted")
	}
	r, R := Ranks(p)
	if r != 3 || R != 3 {
		t.Errorf("partition matroid ranks = (%d,%d), want (3,3) — matroids have r=R", r, R)
	}
}

func TestSeedDisjointnessMatroid(t *testing.T) {
	// 3 nodes, 2 ads -> 6 elements; element = ad*3 + node.
	m := SeedDisjointnessMatroid(3, 2)
	if err := CheckMatroidAxioms(m); err != nil {
		t.Fatalf("Lemma 1 matroid fails axioms: %v", err)
	}
	// Same node for two different ads is dependent.
	if m.Independent(Mask(0).Add(0).Add(3)) {
		t.Error("node 0 assigned to both ads should be dependent")
	}
	// Distinct nodes across ads are fine.
	if !m.Independent(Mask(0).Add(0).Add(4)) {
		t.Error("disjoint assignment rejected")
	}
	r, R := Ranks(m)
	if r != 3 || R != 3 {
		t.Errorf("ranks = (%d,%d), want (3,3)", r, R)
	}
}

func TestKnapsackIsIndependenceSystemNotMatroid(t *testing.T) {
	// Modular costs {3,3,2,2}, budget 4: {2,3} is maximal of size 2 and
	// {0} of size... {0} can be augmented by 2? 3+2=5 > 4, no; by 3: 5 > 4.
	// So {0} is maximal with size 1 -> augmentation fails vs {2,3}.
	k := Knapsack{Cost: Modular([]float64{3, 3, 2, 2}), Budget: 4}
	if err := CheckIndependenceSystem(k); err != nil {
		t.Fatalf("knapsack fails independence system: %v", err)
	}
	if err := CheckMatroidAxioms(k); err == nil {
		t.Error("this knapsack should not satisfy the matroid axioms")
	}
	r, R := Ranks(k)
	if r != 1 || R != 2 {
		t.Errorf("knapsack ranks = (%d,%d), want (1,2)", r, R)
	}
}

// Lemma 2: the intersection of the partition matroid and submodular
// knapsacks is an independence system.
func TestRMFeasibleFamilyIsIndependenceSystem(t *testing.T) {
	rng := xrand.New(3)
	m := SeedDisjointnessMatroid(3, 2)
	// Submodular knapsack cost per ad: coverage restricted to the ad's
	// elements (elements of the other ad contribute nothing).
	mkCost := func(ad int) Function {
		cov := randomCoverage(rng, 6, 5)
		return Function{N: 6, Eval: func(s Mask) float64 {
			var restricted Mask
			for _, e := range s.Elements() {
				if e/3 == ad {
					restricted = restricted.Add(e)
				}
			}
			return cov.Eval(restricted)
		}}
	}
	fam := Intersection{m, Knapsack{Cost: mkCost(0), Budget: 1.5}, Knapsack{Cost: mkCost(1), Budget: 1.5}}
	if err := CheckIndependenceSystem(fam); err != nil {
		t.Fatalf("Lemma 2 violated: %v", err)
	}
}

func TestGreedyModularUniform(t *testing.T) {
	f := Modular([]float64{5, 1, 4, 2, 3})
	S := Greedy(f, UniformMatroid{N: 5, K: 2})
	if !S.Has(0) || !S.Has(2) || S.Count() != 2 {
		t.Errorf("greedy picked %v, want {0,2}", S.Elements())
	}
}

func TestBruteForceMax(t *testing.T) {
	f := Modular([]float64{3, 5, 4})
	S, v := BruteForceMax(f, UniformMatroid{N: 3, K: 2})
	if v != 9 || !S.Has(1) || !S.Has(2) {
		t.Errorf("brute force = %v (%v), want {1,2} (9)", S.Elements(), v)
	}
}

// Theorem 2's guarantee must hold on random small instances: greedy value
// ≥ CABound(κ, r, R) · OPT.
func TestTheorem2BoundHolds(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 15; trial++ {
		f := randomCoverage(rng, 6, 6)
		costs := make([]float64, 6)
		for i := range costs {
			costs[i] = rng.Float64()*2 + 0.2
		}
		fam := Intersection{
			UniformMatroid{N: 6, K: 3},
			Knapsack{Cost: Modular(costs), Budget: 2.5},
		}
		greedy := f.Eval(Greedy(f, fam))
		_, opt := BruteForceMax(f, fam)
		if opt == 0 {
			continue
		}
		kappa := TotalCurvature(f)
		r, R := Ranks(fam)
		bound := CABound(kappa, r, R)
		if greedy < bound*opt-1e-9 {
			t.Errorf("trial %d: greedy %v < bound %v × OPT %v (κ=%v, r=%d, R=%d)",
				trial, greedy, bound, opt, kappa, r, R)
		}
	}
}

func TestCABoundProperties(t *testing.T) {
	// κ -> 0 limit is r/R.
	if got := CABound(0, 2, 4); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CABound(0,2,4) = %v, want 0.5", got)
	}
	// κ = 1, r = R = k gives 1-(1-1/k)^k.
	k := 3
	want := 1 - math.Pow(1-1.0/float64(k), float64(k))
	if got := CABound(1, k, k); math.Abs(got-want) > 1e-9 {
		t.Errorf("CABound(1,%d,%d) = %v, want %v", k, k, got, want)
	}
	// The paper's worst case 1/R (Eq. 3): bound ≥ 1/R always.
	f := func(kap float64, r8, R8 uint8) bool {
		kappa := math.Mod(math.Abs(kap), 1)
		r := int(r8%6) + 1
		R := r + int(R8%6)
		return CABound(kappa, r, R) >= 1/float64(R)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n > 64")
		}
	}()
	FullMask(65)
}

func TestIntersectionEmpty(t *testing.T) {
	var x Intersection
	if x.NumElements() != 0 {
		t.Error("empty intersection has no elements")
	}
	if !x.Independent(0) {
		t.Error("empty intersection accepts everything")
	}
}
