package incentive

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// AllKinds lists the incentive models in the paper's Figure 2/3 order.
func AllKinds() []Kind { return []Kind{Linear, Constant, Sublinear, Superlinear} }

func sigma4() []float64 { return []float64{1, 2, 4, 10} }

func TestLinear(t *testing.T) {
	tab := Build(Linear, 0.5, sigma4())
	want := []float64{0.5, 1, 2, 5}
	for u, w := range want {
		if got := tab.Cost(int32(u)); math.Abs(got-w) > 1e-12 {
			t.Errorf("linear cost(%d) = %v, want %v", u, got, w)
		}
	}
	if tab.MaxCost() != 5 {
		t.Errorf("MaxCost = %v, want 5", tab.MaxCost())
	}
}

func TestConstant(t *testing.T) {
	tab := Build(Constant, 2, sigma4())
	want := 2 * (1 + 2 + 4 + 10) / 4.0
	for u := int32(0); u < 4; u++ {
		if got := tab.Cost(u); math.Abs(got-want) > 1e-12 {
			t.Errorf("constant cost(%d) = %v, want %v", u, got, want)
		}
	}
}

func TestSublinear(t *testing.T) {
	tab := Build(Sublinear, 1, sigma4())
	if got := tab.Cost(0); got != 0 {
		t.Errorf("sublinear cost at σ=1 is %v, want 0 (log 1)", got)
	}
	if got, want := tab.Cost(3), math.Log(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("sublinear cost(3) = %v, want %v", got, want)
	}
	// σ < 1 (possible with the out-degree proxy) must not go negative.
	tiny := Build(Sublinear, 1, []float64{0, 0.5})
	if tiny.Cost(0) != 0 || tiny.Cost(1) != 0 {
		t.Error("sublinear costs must clamp at 0")
	}
}

func TestSuperlinear(t *testing.T) {
	tab := Build(Superlinear, 0.1, sigma4())
	if got, want := tab.Cost(3), 0.1*100.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("superlinear cost(3) = %v, want %v", got, want)
	}
}

// All models are monotone in σ — higher influence never costs less.
func TestMonotoneInSigma(t *testing.T) {
	sigma := []float64{1, 1.5, 3, 8, 20}
	for _, kind := range AllKinds() {
		tab := Build(kind, 0.7, sigma)
		for u := 1; u < len(sigma); u++ {
			if tab.Cost(int32(u)) < tab.Cost(int32(u-1))-1e-12 {
				t.Errorf("%v: cost decreased from node %d to %d", kind, u-1, u)
			}
		}
	}
}

func TestTotalCost(t *testing.T) {
	tab := Build(Linear, 1, sigma4())
	if got := tab.TotalCost([]int32{0, 2}); math.Abs(got-5) > 1e-12 {
		t.Errorf("TotalCost = %v, want 5", got)
	}
	if got := tab.TotalCost(nil); got != 0 {
		t.Errorf("TotalCost(nil) = %v, want 0", got)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("quadratic"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for alpha <= 0")
		}
	}()
	Build(Linear, 0, sigma4())
}

func TestSingletonsOutDegree(t *testing.T) {
	b := graph.NewBuilder(3, 3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	s := SingletonsOutDegree(g)
	want := []float64{2, 1, 0}
	for u, w := range want {
		if s[u] != w {
			t.Errorf("out-degree proxy of %d = %v, want %v", u, s[u], w)
		}
	}
}
