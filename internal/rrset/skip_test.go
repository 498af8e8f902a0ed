package rrset

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
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

// The mixed path's base rate is the mode over (0, 1), ties to the
// smallest: 0 and 1 never count, however often they occur.
func TestMixedBaseRateIsMode(t *testing.T) {
	var modes modeTable
	for _, tc := range []struct {
		ps   []float32
		want float32
	}{
		{[]float32{0.3, 0.3, 0.1, 0.1, 0, 0, 0, 1, 1, 1}, 0.1},
		{[]float32{0.2, 0.5, 0.2, 0.5, 0.5, 0.2, 0.7}, 0.2},
		{[]float32{0.4, 0.3, 0.25, 0, 0, 0, 0}, 0.25},
		{[]float32{0.6, 0.6, 0.6, 0.05, 0.6, 0.05}, 0.6},
		{[]float32{0, 1, 0, 1, 0}, 0},
	} {
		if got := modes.mode(tc.ps); got != tc.want {
			t.Errorf("mode of %v = %v, want %v", tc.ps, got, tc.want)
		}
	}
}

// A node whose 60 in-arcs share p0 = 0.02 and whose other eight differ
// (four above p0, up to 1, two below it and two at 0) takes the mixed
// path: gaps at p0, thinning below it and top-up coins above it. Every
// source must be included in sets rooted at such a node at the rate of
// its own arc, within 5 standard errors, and a p = 0 source never. The
// targets share the sources and their probabilities, so each set rooted
// at one is one draw of the same node. The seed is fixed, so the test is
// deterministic.
func TestMixedPathInclusion(t *testing.T) {
	const common, p0, targets, count = 60, 0.02, 200, 40000
	odd := []float32{0.05, 0.3, 0.5, 1, 0.01, 0.005, 0, 0}
	d := common + len(odd)
	g := skipStar(d, targets)
	rate := make([]float32, d)
	for u := range rate {
		rate[u] = p0
		if u >= common {
			rate[u] = odd[u-common]
		}
	}
	probs := make([]float32, g.NumEdges())
	_, srcs, ids := g.InCSR()
	for k, e := range ids {
		probs[e] = rate[srcs[k]]
	}
	sp := NewSampleProbs(g, probs)
	for v := d; v < d+targets; v++ {
		if inv := sp.skip[v]; !(inv > 0) || sp.mixed[int(inv)-1].p0 != float64(float32(p0)) {
			t.Fatalf("target %d: skip = %v, want the mixed path at p0 = %v", v, inv, p0)
		}
	}
	if got := len(sp.mixed[0].up); got != 4 {
		t.Fatalf("%d top-up arcs, want 4", got)
	}
	hits := make([]float64, d)
	var rooted float64
	sampleSets(g, sp, count, func(nodes []int32) {
		if nodes[0] < int32(d) {
			return
		}
		rooted++
		for _, u := range nodes[1:] {
			hits[u]++
		}
	})
	for u, p := range rate {
		want, sd := rooted*float64(p), math.Sqrt(rooted*float64(p)*(1-float64(p)))
		if p == 0 && hits[u] != 0 {
			t.Fatalf("p = 0 source %d in %.0f sets", u, hits[u])
		}
		if math.Abs(hits[u]-want) > 5*sd {
			t.Errorf("source %d (p = %v) in %.0f of %.0f sets, want %.0f ± %.0f", u, p, hits[u], rooted, want, 5*sd)
		}
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

// logGap is the skip path's draw rule: draw x gives U = (x>>11 + 1)/2^53
// and the gap ⌊math.Log(U)·inv⌋ dead arcs, live = false once the gap
// reaches rem, the arcs left.
func logGap(x uint64, inv float64, rem int) (gap int, live bool) {
	g := math.Log(float64(x>>11+1)/(1<<53)) * inv
	if g >= float64(rem) {
		return 0, false
	}
	return int(g), true
}

// gapHarness observes the kernel's first skip-path draw. Its graph has
// sources 0..max(rems)-1 without in-arcs and, for each rem in rems, one
// target whose rem in-arcs come from sources 0..rem-1; the node count is
// a power of two, so Int31n draws the root with one masked Uint64. An
// RNG state whose first two outputs are a target and x makes sampleInto
// root the set there and take x as the target's first gap draw: the set
// is the target alone when that draw stops, and otherwise its second
// member is the source of the live arc the gap lands on.
type gapHarness struct {
	g       *graph.Graph
	targets map[int]int32 // rem -> target node
	sc      scratch
	nodes   []int32
}

func newGapHarness(rems ...int) *gapHarness {
	d := slices.Max(rems)
	n := 1
	for n < d+len(rems) {
		n *= 2
	}
	b := graph.NewBuilder(int32(n), 0)
	h := &gapHarness{targets: make(map[int]int32)}
	for i, rem := range rems {
		v := int32(d + i)
		h.targets[rem] = v
		for u := range rem {
			b.AddEdge(int32(u), v)
		}
	}
	h.g = b.Build()
	return h
}

// step is the kernel's gap for draw x on the target with rem in-arcs,
// all of probability sp's.
func (h *gapHarness) step(t *testing.T, sp SampleProbs, x uint64, rem int) (gap int, live bool) {
	target := h.targets[rem]
	var rng xrand.RNG
	rng.SetState(stateFor(uint64(target), x))
	h.nodes = h.sc.sampleInto(h.nodes[:0], h.g, sp, &rng)
	if h.nodes[0] != target {
		t.Fatalf("set rooted at %d, want %d", h.nodes[0], target)
	}
	if len(h.nodes) == 1 {
		return 0, false
	}
	off, srcs, _ := h.g.InCSR()
	return slices.Index(srcs[off[target]:off[target+1]], h.nodes[1]), true
}

// stateFor returns a xoshiro256** state whose first two outputs are a and
// b: an output depends on s1 alone, and a step moves s0^s1^s2 into s1.
func stateFor(a, b uint64) (s0, s1, s2, s3 uint64) {
	s1 = outputPreimage(a)
	return s1 ^ outputPreimage(b), s1, 0, 1
}

// outputPreimage inverts xoshiro256**'s output x = rotl(s1·5, 7)·9.
func outputPreimage(x uint64) uint64 {
	return bits.RotateLeft64(x*oddInverse(9), -7) * oddInverse(5)
}

// oddInverse returns a⁻¹ mod 2^64 by Newton's iteration, each step of
// which doubles the correct low bits (3 to start with).
func oddInverse(a uint64) uint64 {
	v := a
	for range 5 {
		v *= 2 - a*v
	}
	return v
}

// The kernel's gap equals the math.Log rule's at every draw where the
// rule's gap changes. For each p — the weighted-cascade 1/d for d =
// 1..4096 and extremes down to the smallest subnormal float32 — a
// bisection over m = x>>11 finds each boundary between gap ≥ k and gap
// < k for k ≤ min(d, 64); the kernel's step is checked at m−1, m and
// m+1, and at m = 0 and 2^53−1, on a node of 65 in-arcs and on nodes of
// exactly gap and gap+1 in-arcs, where the stop test decides. Near these
// boundaries lnUniform's error is larger than the gap's change between
// neighbouring m, so a missing or too small margin shows here.
func TestSkipGapMatchesLog(t *testing.T) {
	x0, s0, s1, s2, s3 := xrand.Next(stateFor(7, 1<<40))
	if x1, _, _, _, _ := xrand.Next(s0, s1, s2, s3); x0 != 7 || x1 != 1<<40 {
		t.Fatalf("stateFor(7, 1<<40): outputs %d, %#x", x0, x1)
	}
	const maxRem, maxM = 65, 1<<53 - 1
	rems := make([]int, maxRem)
	for i := range rems {
		rems[i] = i + 1
	}
	h := newGapHarness(rems...)
	var ps []float32
	for d := 1; d <= 4096; d++ {
		ps = append(ps, float32(1)/float32(d))
	}
	ps = append(ps, 1e-7, 1e-30, math.SmallestNonzeroFloat32, 0.5, 0.999999, 1)
	probs := make([]float32, h.g.NumEdges())
	boundaries := 0
	for _, p := range ps {
		for i := range probs {
			probs[i] = p
		}
		sp := NewSampleProbs(h.g, probs)
		inv := 1 / math.Log1p(-float64(p))
		check := func(m uint64) {
			x := m<<11 | 0x4d5 // the low 11 bits are not drawn on
			want, live := logGap(x, inv, maxRem)
			rs := []int{maxRem}
			if live {
				rs = append(rs, want+1)
				if want > 0 {
					rs = append(rs, want)
				}
			}
			for _, rem := range rs {
				w, wl := logGap(x, inv, rem)
				if g, gl := h.step(t, sp, x, rem); g != w || gl != wl {
					t.Fatalf("p = %g, m = %d, %d arcs: kernel gap %d (live %v), math.Log rule %d (live %v)", p, m, rem, g, gl, w, wl)
				}
			}
		}
		check(0)
		check(maxM)
		kmax := int(min(math.Round(1/float64(p)), 64))
		// gapAtLeast reports whether the rule's gap at m is ≥ k; it
		// falls from true at m = 0 to false at maxM, where U = 1.
		gapAtLeast := func(m uint64, k int) bool {
			g, live := logGap(m<<11, inv, maxRem)
			return !live || g >= k
		}
		for k := 1; k <= kmax && gapAtLeast(0, k); k++ {
			lo, hi := uint64(0), uint64(maxM)
			for hi-lo > 1 {
				if mid := lo + (hi-lo)/2; gapAtLeast(mid, k) {
					lo = mid
				} else {
					hi = mid
				}
			}
			boundaries++
			check(hi - 1)
			check(hi)
			if hi < maxM {
				check(hi + 1)
			}
		}
	}
	t.Logf("%d probabilities, %d gap boundaries, %d draws settled by math.Log", len(ps), boundaries, h.sc.exactDraws)
}

// The kernel settles a skip-path gap without math.Log in all but a
// margin-sized share of draws: at the weighted-cascade probabilities 1/d,
// d = 1..64, on nodes of in-degree 512, about 10^7 draws from a fixed
// seed fall back fewer than 10^-5 of the time (the margin predicts about
// 10^-7). A margin that sends every draw to math.Log, or p = 1 draws
// taken through the margin test, fails here although the stream would be
// unchanged. Draws are counted exactly: every source is new to a set, so
// a target's draws are its live arcs plus one stopping draw unless its
// last arc was live.
func TestSkipGapFallbackRare(t *testing.T) {
	const deg, targets, setsPerP = 512, 512, 8000
	g := skipStar(deg, targets)
	off, srcs, _ := g.InCSR()
	probs := make([]float32, g.NumEdges())
	var sc scratch
	var nodes []int32
	rng := xrand.New(5)
	var draws int64
	for d := 1; d <= 64; d++ {
		for i := range probs {
			probs[i] = float32(1) / float32(d)
		}
		sp := NewSampleProbs(g, probs)
		for range setsPerP {
			nodes = sc.sampleInto(nodes[:0], g, sp, rng)
			if v := nodes[0]; v >= deg {
				draws += int64(len(nodes) - 1)
				if !slices.Contains(nodes[1:], srcs[off[v+1]-1]) {
					draws++
				}
			}
		}
	}
	if draws < 5e6 {
		t.Fatalf("only %d skip-path draws", draws)
	}
	if rate := float64(sc.exactDraws) / float64(draws); rate >= 1e-5 {
		t.Fatalf("%d of %d draws fell back to math.Log (%.2g), want < 1e-5", sc.exactDraws, draws, rate)
	}
	t.Logf("%d of %d draws fell back to math.Log", sc.exactDraws, draws)
}

// FuzzSkipGap checks the kernel's first skip-path draw against the
// math.Log rule for any draw x, probability p in (0, 1] and in-degree
// rem.
func FuzzSkipGap(f *testing.F) {
	f.Add(uint64(0), float32(0.5), uint16(1))
	f.Add(uint64(math.MaxUint64), float32(1), uint16(3))
	f.Add(uint64(0x9e3779b97f4a7c15), float32(1)/3, uint16(64))
	f.Add(uint64(1)<<63, float32(1e-7), uint16(40000))
	var h *gapHarness
	f.Fuzz(func(t *testing.T, x uint64, p float32, rem uint16) {
		if !(p > 0 && p <= 1) || rem == 0 {
			return
		}
		if h == nil || h.targets[int(rem)] == 0 {
			h = newGapHarness(int(rem))
		}
		w, wl := logGap(x, 1/math.Log1p(-float64(p)), int(rem))
		sp := NewSampleProbs(h.g, testProbs(h.g.NumEdges(), p))
		if g, gl := h.step(t, sp, x, int(rem)); g != w || gl != wl {
			t.Fatalf("p = %g, x = %#x, %d arcs: kernel gap %d (live %v), math.Log rule %d (live %v)", p, x, rem, g, gl, w, wl)
		}
	})
}
