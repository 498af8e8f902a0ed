// Package baseline computes the candidate scores behind the comparison
// algorithms of the paper's experiments (Section 5): ad-specific weighted
// PageRank for PageRank-GR and PageRank-RR (the engine's ModePRGreedy and
// ModePRRoundRobin consume them through Options.PRScores), plus two extra
// ablation baselines (high-degree and random scoring).
//
// The PageRank variant ranks *influencers*: in the paper's graph semantics
// an arc (u, v) means v follows u, so endorsement mass must flow from
// followers to followees. That is PageRank on the transpose graph with the
// ad-specific influence probabilities p^i_{u,v} as arc weights:
//
//	pr(u) = (1−d)/n + d · Σ_{(u,v)∈E} pr(v) · p^i_{u,v} / P_in(v)
//
// where P_in(v) = Σ_{(w,v)∈E} p^i_{w,v} normalizes v's outgoing mass in
// the transpose graph. Nodes following nobody (P_in = 0) are dangling and
// redistribute uniformly.
package baseline

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// PageRankOptions tunes the power iteration.
type PageRankOptions struct {
	// Damping is the usual damping factor d (default 0.85).
	Damping float64
	// Iterations is the number of power-iteration steps (default 50).
	Iterations int
	// Tolerance stops iteration early when the L1 change drops below it
	// (default 1e-9).
	Tolerance float64
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Iterations == 0 {
		o.Iterations = 50
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// PageRank computes influence-weighted PageRank scores for one ad. probs
// holds the ad-specific arc probabilities aligned with canonical edge IDs;
// nil means unit weights (structural PageRank).
func PageRank(g *graph.Graph, probs []float32, opt PageRankOptions) []float64 {
	opt = opt.withDefaults()
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	// P_in(v): total incoming probability mass of v in the original
	// graph = out-mass of v in the transpose.
	pin := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		ids := g.InEdgeIDs(v)
		for _, e := range ids {
			if probs == nil {
				pin[v]++
			} else {
				pin[v] += float64(probs[e])
			}
		}
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	d := opt.Damping
	for iter := 0; iter < opt.Iterations; iter++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for v := int32(0); v < int32(n); v++ {
			if pin[v] == 0 {
				dangling += pr[v]
				continue
			}
			share := pr[v] / pin[v]
			srcs := g.InNeighbors(v)
			ids := g.InEdgeIDs(v)
			for k, u := range srcs {
				w := 1.0
				if probs != nil {
					w = float64(probs[ids[k]])
				}
				next[u] += share * w
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		var delta float64
		for i := range next {
			v := base + d*next[i]
			if v > pr[i] {
				delta += v - pr[i]
			} else {
				delta += pr[i] - v
			}
			next[i], pr[i] = 0, v
		}
		if delta < opt.Tolerance {
			break
		}
	}
	return pr
}

// ScoresForProblem computes the ad-specific PageRank score vectors the
// engine's PageRank modes consume.
func ScoresForProblem(p *core.Problem, opt PageRankOptions) [][]float64 {
	scores := make([][]float64, p.NumAds())
	for i := range scores {
		scores[i] = PageRank(p.Graph, p.EdgeProbs(i), opt)
	}
	return scores
}

// HighDegreeScores returns out-degree score vectors for every ad — the
// classic IM heuristic, used as an extra ablation baseline.
func HighDegreeScores(p *core.Problem) [][]float64 {
	scores := make([][]float64, p.NumAds())
	base := make([]float64, p.Graph.NumNodes())
	for u := int32(0); u < p.Graph.NumNodes(); u++ {
		base[u] = float64(p.Graph.OutDegree(u))
	}
	for i := range scores {
		scores[i] = base
	}
	return scores
}

// RandomScores returns uniformly random score vectors (a sanity-floor
// baseline for ablations).
func RandomScores(p *core.Problem, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	scores := make([][]float64, p.NumAds())
	for i := range scores {
		s := make([]float64, p.Graph.NumNodes())
		for u := range s {
			s[u] = rng.Float64()
		}
		scores[i] = s
	}
	return scores
}
