package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

// AlmostEqual reports whether a and b are within tol of each other in
// absolute or relative terms, whichever is looser. It treats NaN as unequal
// to everything.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestLogChooseSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 0},
		{5, 5, 0},
		{5, 1, math.Log(5)},
		{5, 2, math.Log(10)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		got := LogChoose(c.n, c.k)
		if !AlmostEqual(got, c.want, 1e-9) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChooseSymmetry(t *testing.T) {
	f := func(n16, k16 uint16) bool {
		n := int(n16%500) + 1
		k := int(k16) % (n + 1)
		return AlmostEqual(LogChoose(n, k), LogChoose(n, n-k), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Pascal's rule: C(n,k) = C(n-1,k-1) + C(n-1,k), verified in log space.
func TestLogChoosePascal(t *testing.T) {
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := math.Exp(LogChoose(n, k))
			rhs := math.Exp(LogChoose(n-1, k-1)) + math.Exp(LogChoose(n-1, k))
			if !AlmostEqual(lhs, rhs, 1e-9) {
				t.Fatalf("Pascal fails at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

func TestLogChoosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative n")
		}
	}()
	LogChoose(-1, 0)
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("tiny absolute difference should compare equal")
	}
	if !AlmostEqual(1e12, 1e12*(1+1e-10), 1e-9) {
		t.Error("tiny relative difference should compare equal")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("1 and 2 are not almost equal")
	}
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN must not compare equal")
	}
}
