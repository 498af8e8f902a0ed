// Package gen provides synthetic social-network generators and the dataset
// presets used by the experiment harness as stand-ins for the paper's
// real-world datasets (FLIXSTER, EPINIONS, DBLP, LIVEJOURNAL), which are
// not redistributable and not available offline.
//
// Generators implemented: Erdős–Rényi G(n,m), Barabási–Albert preferential
// attachment, Watts–Strogatz small world, power-law configuration model,
// and R-MAT (recursive matrix, the generator behind the Graph500 and many
// SNAP-scale synthetic social graphs). R-MAT with the classic (0.57, 0.19,
// 0.19, 0.05) quadrant split produces the heavy-tailed, community-ish
// degree structure characteristic of follower networks, which is what the
// paper's algorithms are sensitive to.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// ErdosRenyi generates a directed G(n, m) graph: m arcs sampled uniformly
// with replacement (duplicates and self-loops are dropped by the builder,
// so the realized arc count can be slightly below m).
func ErdosRenyi(n int32, m int, rng *xrand.RNG) *graph.Graph {
	if n <= 0 {
		panic("gen: ErdosRenyi needs n > 0")
	}
	b := graph.NewBuilder(n, m)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Int31n(n), rng.Int31n(n))
	}
	return b.Build()
}

// BarabasiAlbert generates an undirected preferential-attachment graph with
// n nodes, each new node attaching k edges, then directs every edge both
// ways (the paper's DBLP treatment). The initial clique has k+1 nodes.
func BarabasiAlbert(n int32, k int, rng *xrand.RNG) *graph.Graph {
	if int(n) < k+2 {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs n >= k+2 (n=%d, k=%d)", n, k))
	}
	if k < 1 {
		panic("gen: BarabasiAlbert needs k >= 1")
	}
	b := graph.NewBuilder(n, 2*int(n)*k)
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportionally to degree.
	endpoints := make([]int32, 0, 2*int(n)*k)
	// Seed clique over the first k+1 nodes.
	for u := int32(0); u <= int32(k); u++ {
		for v := u + 1; v <= int32(k); v++ {
			b.AddUndirected(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	// Targets are linked in draw order: the order they are appended to
	// endpoints steers every later draw, so it must be a function of the
	// seed alone (ranging over a map made each process draw its own graph).
	chosen := make([]int32, 0, k)
	for u := int32(k) + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			v := endpoints[rng.Intn(len(endpoints))]
			if v != u && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			b.AddUndirected(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return b.Build()
}

// WattsStrogatz generates a directed small-world graph: a ring lattice
// where each node points to its k nearest clockwise successors, with each
// arc's target rewired uniformly at random with probability beta.
func WattsStrogatz(n int32, k int, beta float64, rng *xrand.RNG) *graph.Graph {
	if k < 1 || int32(k) >= n {
		panic("gen: WattsStrogatz needs 1 <= k < n")
	}
	b := graph.NewBuilder(n, int(n)*k)
	for u := int32(0); u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + int32(j)) % n
			if rng.Bool(beta) {
				v = rng.Int31n(n)
				for v == u {
					v = rng.Int31n(n)
				}
			}
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// PowerLawConfiguration generates a directed graph whose out-degrees follow
// a (truncated) power law with the given exponent (> 1); targets are chosen
// uniformly. maxDegree caps individual out-degrees.
func PowerLawConfiguration(n int32, exponent float64, maxDegree int, rng *xrand.RNG) *graph.Graph {
	if maxDegree < 1 {
		panic("gen: PowerLawConfiguration needs maxDegree >= 1")
	}
	b := graph.NewBuilder(n, int(n)*3)
	for u := int32(0); u < n; u++ {
		d := rng.Zipf(exponent, maxDegree)
		for j := 0; j < d; j++ {
			b.AddEdge(u, rng.Int31n(n))
		}
	}
	return b.Build()
}

// RMATParams configures an R-MAT generator. A, B, C, D are the quadrant
// probabilities (A+B+C+D must be ~1); Noise perturbs them per level to
// avoid the staircase artifact.
type RMATParams struct {
	A, B, C, D float64
	Noise      float64
}

// DefaultRMAT is the classic Graph500-style parameterization producing
// social-network-like skew.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.1}

// RMAT generates a directed graph with n nodes (rounded up internally to a
// power of two for quadrant recursion; out-of-range endpoints are
// resampled) and approximately m arcs.
func RMAT(n int32, m int, p RMATParams, rng *xrand.RNG) *graph.Graph {
	if n <= 0 {
		panic("gen: RMAT needs n > 0")
	}
	sum := p.A + p.B + p.C + p.D
	if math.Abs(sum-1) > 1e-6 {
		panic(fmt.Sprintf("gen: RMAT quadrant probabilities sum to %v, want 1", sum))
	}
	levels := 0
	for (int32(1) << levels) < n {
		levels++
	}
	b := graph.NewBuilder(n, m)
	for i := 0; i < m; i++ {
		u, v := rmatSample(levels, p, rng)
		for u >= n || v >= n {
			u, v = rmatSample(levels, p, rng)
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

func rmatSample(levels int, p RMATParams, rng *xrand.RNG) (int32, int32) {
	var u, v int32
	a, bb, c := p.A, p.B, p.C
	for l := 0; l < levels; l++ {
		// Multiplicative noise per level keeps the degree distribution
		// smooth; renormalize after perturbation.
		na := a * (1 - p.Noise/2 + p.Noise*rng.Float64())
		nb := bb * (1 - p.Noise/2 + p.Noise*rng.Float64())
		nc := c * (1 - p.Noise/2 + p.Noise*rng.Float64())
		nd := (1 - a - bb - c) * (1 - p.Noise/2 + p.Noise*rng.Float64())
		tot := na + nb + nc + nd
		na, nb, nc = na/tot, nb/tot, nc/tot
		r := rng.Float64()
		u <<= 1
		v <<= 1
		switch {
		case r < na:
			// top-left: no bits set
		case r < na+nb:
			v |= 1
		case r < na+nb+nc:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}
