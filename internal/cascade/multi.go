package cascade

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// MultiAdSimulator propagates h competing ads simultaneously under a hard
// competition constraint: each user engages with at most one ad per time
// window. This implements the paper's future-work item (iii) —
// "integrate hard competition constraints into the influence propagation
// process" — and is used to stress-test allocations produced under the
// independent-propagation assumption.
//
// Semantics (synchronized-round competitive IC): all seed sets activate at
// round 0 (they are disjoint by the partition matroid). In each round,
// every user who engaged with ad i in the previous round gets one chance
// to convert each not-yet-engaged out-neighbor v, succeeding with the
// ad-specific probability p^i_{u,v}. If several ads succeed on the same
// user in the same round, the user adopts one of them uniformly at
// random.
type MultiAdSimulator struct {
	g     *graph.Graph
	probs [][]float32

	// Scratch state reused across runs (epoch trick avoids clearing).
	stamp    []int64 // stamp[v] == epoch: v engaged in this run
	epoch    int64
	claims   []int32 // per-round successful attempts on each node
	winner   []int32 // ad a node claimed this round adopts
	claimed  []int32 // nodes claimed this round, in first-claim order
	frontier []frontierEntry
}

// NewMultiAdSimulator builds a simulator for h ads; probs[i] holds ad i's
// arc probabilities aligned with canonical edge IDs.
func NewMultiAdSimulator(g *graph.Graph, probs [][]float32) *MultiAdSimulator {
	if len(probs) == 0 {
		panic("cascade: MultiAdSimulator needs at least one ad")
	}
	for i, p := range probs {
		if int64(len(p)) != g.NumEdges() {
			panic(fmt.Sprintf("cascade: ad %d has %d probs for %d edges", i, len(p), g.NumEdges()))
		}
	}
	n := g.NumNodes()
	return &MultiAdSimulator{
		g:      g,
		probs:  probs,
		stamp:  make([]int64, n),
		claims: make([]int32, n),
		winner: make([]int32, n),
	}
}

type frontierEntry struct {
	node int32
	ad   int32
}

// run simulates one competitive propagation and adds each ad's
// engagements (seeds included) to counts, allocating nothing once the
// frontier and claimed lists have grown to the largest run. Per arc out
// of a frontier node to a not-yet-engaged target it draws one
// RNG.Float64 coin u unless p ≤ 0, and the attempt succeeds unless
// u ≥ p (so a NaN p draws and succeeds). A success takes one Intn(k)
// reservoir draw, k the node's successes so far this round; Intn(1)
// still draws.
func (m *MultiAdSimulator) run(seedSets [][]int32, rng *xrand.RNG, counts []int64) {
	if len(seedSets) != len(m.probs) {
		panic(fmt.Sprintf("cascade: %d seed sets for %d ads", len(seedSets), len(m.probs)))
	}
	m.epoch++
	epoch, stamp, claims, winner := m.epoch, m.stamp, m.claims, m.winner
	off, targets := m.g.CSR()
	frontier := m.frontier[:0]
	for ad, seeds := range seedSets {
		for _, u := range seeds {
			if stamp[u] == epoch {
				panic(fmt.Sprintf("cascade: node %d seeded for two ads", u))
			}
			stamp[u] = epoch
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: u, ad: int32(ad)})
		}
	}
	// claims[v] holds, during a round, the number of successful attempts
	// on v; the adopted ad is reservoir-sampled among them so each
	// succeeding ad wins with equal probability.
	claimed := m.claimed
	for len(frontier) > 0 {
		claimed = claimed[:0]
		for _, fe := range frontier {
			lo, hi := off[fe.node], off[fe.node+1]
			vs := targets[lo:hi]
			ps := m.probs[fe.ad][lo:hi]
			ps = ps[:len(vs)]
			for i, v := range vs {
				if stamp[v] == epoch {
					continue // already engaged in an earlier round
				}
				p := ps[i]
				if p <= 0 || rng.Float64() >= float64(p) {
					continue
				}
				if claims[v] == 0 {
					claimed = append(claimed, v)
				}
				claims[v]++
				// Reservoir sampling over successful attempts.
				if rng.Intn(int(claims[v])) == 0 {
					winner[v] = fe.ad
				}
			}
		}
		frontier = frontier[:0]
		for _, v := range claimed {
			claims[v] = 0
			ad := winner[v]
			stamp[v] = epoch
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: v, ad: ad})
		}
	}
	m.frontier, m.claimed = frontier, claimed
}

// Engagements estimates the expected per-ad engagement counts over runs
// Monte-Carlo propagations on up to workers goroutines; run r draws from
// xrand.SlotSeed(seed, r), so the estimate is a function of (seedSets,
// runs, seed) alone.
func (m *MultiAdSimulator) Engagements(seedSets [][]int32, runs, workers int, seed uint64) []float64 {
	if runs <= 0 {
		panic("cascade: Engagements needs runs > 0")
	}
	h := len(m.probs)
	ws := fanOut(runs, workers, seed, func(w int) *multiWorker {
		wk := &multiWorker{sim: m, totals: make([]int64, h)}
		if w > 0 {
			wk.sim = NewMultiAdSimulator(m.g, m.probs)
		}
		return wk
	}, func(wk *multiWorker, rng *xrand.RNG, _ int) {
		wk.sim.run(seedSets, rng, wk.totals)
	})
	out := make([]float64, h)
	for i := range out {
		var total int64
		for _, wk := range ws {
			total += wk.totals[i]
		}
		out[i] = float64(total) / float64(runs)
	}
	return out
}

// multiWorker is one Engagements goroutine's simulator and per-ad
// engagement totals.
type multiWorker struct {
	sim    *MultiAdSimulator
	totals []int64
}
