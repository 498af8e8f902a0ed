package rrset

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// skipStar builds a graph where each node of a target layer has the
// same d sources, nodes 0..d-1, which have no in-arcs of their own: an
// RR set rooted at a target is the target plus exactly its live in-arcs'
// sources, and one rooted at a source is the source alone.
func skipStar(d, targets int) *graph.Graph {
	b := graph.NewBuilder(int32(d+targets), d*targets)
	for v := d; v < d+targets; v++ {
		for u := 0; u < d; u++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// sampleSets draws count RR sets from a one-worker stream, handing each
// to visit.
func sampleSets(g *graph.Graph, sp SampleProbs, count int, visit func(nodes []int32)) {
	NewPool(g, PoolOptions{Workers: 1}).NewStream(sp, 3).SampleN(count, visit)
}

// A node whose d in-arcs all have p = 1 takes the skip path (its
// 1/ln(1−p) is −0) and every gap is 0, so every source is live.
func TestSkipAllLiveAtPOne(t *testing.T) {
	const d = 37
	g := skipStar(d, 1)
	sp := NewSampleProbs(g, testProbs(g.NumEdges(), 1))
	if inv := sp.skip[d]; !(inv <= 0) {
		t.Fatalf("p = 1 node: skip = %v, want the skip path", inv)
	}
	rooted := 0
	sampleSets(g, sp, 2000, func(nodes []int32) {
		if nodes[0] != d {
			return
		}
		rooted++
		got := slices.Sorted(slices.Values(nodes[1:]))
		for u := range d {
			if u >= len(got) || got[u] != int32(u) {
				t.Fatalf("p = 1 set %v: want all %d sources", nodes, d)
			}
		}
		if len(got) != d {
			t.Fatalf("p = 1 set has %d sources, want %d", len(got), d)
		}
	})
	if rooted == 0 {
		t.Fatal("no set rooted at the p = 1 node")
	}
}

// Nodes of in-degree 0 and 1 work on the skip path: an in-degree-0 root
// yields itself alone, and the one in-arc of an in-degree-1 node is live
// in a p share of the sets rooted there.
func TestSkipLowInDegree(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	const p, count = 0.3, 40000
	sp := NewSampleProbs(g, []float32{p})
	if !(sp.skip[1] <= 0) {
		t.Fatalf("in-degree-1 node: skip = %v, want the skip path", sp.skip[1])
	}
	var rooted, live float64
	sampleSets(g, sp, count, func(nodes []int32) {
		switch {
		case nodes[0] == 0 && len(nodes) != 1:
			t.Fatalf("in-degree-0 root: set %v, want [0]", nodes)
		case nodes[0] == 1:
			rooted++
			if len(nodes) == 2 {
				live++
			}
		}
	})
	if sd := math.Sqrt(rooted * p * (1 - p)); math.Abs(live-rooted*p) > 5*sd {
		t.Fatalf("in-degree-1 arc live in %.0f of %.0f sets, want %.0f ± %.0f", live, rooted, rooted*p, 5*sd)
	}
}

// A node whose uniform in-arcs are joined by one p = 0 arc is mixed: it
// takes the per-arc path, which never draws — and so never includes —
// the zero arc.
func TestSkipMixedZeroArcTakesPerArcPath(t *testing.T) {
	const d = 8
	g := skipStar(d, 1)
	probs := testProbs(g.NumEdges(), 0.9)
	// Only the target has in-arcs, so every in-CSR slot is one of its
	// own: zero the last, after uniform ones.
	_, srcs, ids := g.InCSR()
	probs[ids[d-1]] = 0
	zero := srcs[d-1]
	sp := NewSampleProbs(g, probs)
	if inv := sp.skip[d]; !math.IsNaN(inv) {
		t.Fatalf("mixed node: skip = %v, want NaN (per-arc path)", inv)
	}
	rooted := 0
	sampleSets(g, sp, 4000, func(nodes []int32) {
		if nodes[0] == d {
			rooted++
			if slices.Contains(nodes, zero) {
				t.Fatalf("set %v includes the p = 0 arc's source", nodes)
			}
		}
	})
	if rooted == 0 {
		t.Fatal("no set rooted at the mixed node")
	}
}

// The live in-arc count of a d = 64, p = 1/64 node drawn by geometric
// gaps is Binomial(64, 1/64): its mean within 5 standard errors, and the
// share of each count 0..4 within 5 standard errors of the binomial
// probability. The seed is fixed, so the test is deterministic.
func TestSkipLiveCountBinomial(t *testing.T) {
	const d, targets, count = 64, 64, 80000
	const p = 1.0 / d
	g := skipStar(d, targets)
	sp := NewSampleProbs(g, testProbs(g.NumEdges(), p))
	var hist [d + 1]float64
	var samples, sum float64
	sampleSets(g, sp, count, func(nodes []int32) {
		if nodes[0] >= d {
			hist[len(nodes)-1]++
			samples++
			sum += float64(len(nodes) - 1)
		}
	})
	if se := math.Sqrt(d * p * (1 - p) / samples); math.Abs(sum/samples-d*p) > 5*se {
		t.Fatalf("mean live in-arcs %.4f over %.0f draws, want %.4f ± %.4f", sum/samples, samples, d*p, 5*se)
	}
	for k := 0; k <= 4; k++ {
		lg, _ := math.Lgamma(d + 1)
		lk, _ := math.Lgamma(float64(k) + 1)
		lr, _ := math.Lgamma(float64(d-k) + 1)
		pk := math.Exp(lg - lk - lr + float64(k)*math.Log(p) + float64(d-k)*math.Log1p(-p))
		if got, se := hist[k]/samples, math.Sqrt(pk*(1-pk)/samples); math.Abs(got-pk) > 5*se {
			t.Errorf("P(%d live) = %.4f over %.0f draws, want %.4f ± %.4f", k, got, samples, pk, 5*se)
		}
	}
}
