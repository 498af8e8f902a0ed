package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/1000 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	equal := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split children coincide %d/1000 times", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(10)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const k, n = 10, 100000
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[r.Intn(k)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/k) > 0.1*n/k {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, n/k)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d out of range", v)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(13)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", float64(hits)/n)
	}
}

func TestUniform(t *testing.T) {
	r := New(16)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(20)
	const n = 50000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		v := r.Zipf(2.0, 100)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[4] {
		t.Errorf("Zipf counts not decreasing: c1=%d c2=%d c4=%d",
			counts[1], counts[2], counts[4])
	}
}

func TestShuffleCoverage(t *testing.T) {
	// Every position should receive every value with roughly uniform
	// frequency for a small permutation.
	const n = 4
	const trials = 40000
	var counts [n][n]int
	r := New(21)
	for tr := 0; tr < trials; tr++ {
		a := []int{0, 1, 2, 3}
		r.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		for pos, v := range a {
			counts[pos][v]++
		}
	}
	want := float64(trials) / n
	for pos := 0; pos < n; pos++ {
		for v := 0; v < n; v++ {
			if math.Abs(float64(counts[pos][v])-want) > 0.1*want {
				t.Fatalf("Shuffle bias at pos %d value %d: %d (want ~%v)",
					pos, v, counts[pos][v], want)
			}
		}
	}
}

// TestNextMatchesUint64 pins the register-resident stepping contract:
// stepping State() with Next and storing it back with SetState yields
// exactly the Uint64 stream and leaves the RNG where Uint64 would.
func TestNextMatchesUint64(t *testing.T) {
	a, b := New(42), New(42)
	s0, s1, s2, s3 := b.State()
	for i := 0; i < 1000; i++ {
		var x uint64
		x, s0, s1, s2, s3 = Next(s0, s1, s2, s3)
		if want := a.Uint64(); x != want {
			t.Fatalf("draw %d: Next gave %#x, Uint64 %#x", i, x, want)
		}
	}
	b.SetState(s0, s1, s2, s3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("SetState did not resume the stream where Uint64 left it")
	}
}
