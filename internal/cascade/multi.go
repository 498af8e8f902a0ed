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

	owner   []int32 // -1 = not engaged, else ad index; epoch-tagged via stamp
	stamp   []int64
	epoch   int64
	claims  []int32 // per-round conflict resolution scratch
	claimed []int32 // nodes claimed this round
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
		owner:  make([]int32, n),
		stamp:  make([]int64, n),
		claims: make([]int32, n),
	}
}

type frontierEntry struct {
	node int32
	ad   int32
}

// RunOnce simulates a single competitive propagation and returns the
// number of engagements per ad (seeds included). Seed sets must be
// pairwise disjoint. Not safe for concurrent use.
func (m *MultiAdSimulator) RunOnce(seedSets [][]int32, rng *xrand.RNG) []int {
	if len(seedSets) != len(m.probs) {
		panic(fmt.Sprintf("cascade: %d seed sets for %d ads", len(seedSets), len(m.probs)))
	}
	m.epoch++
	counts := make([]int, len(seedSets))
	var frontier []frontierEntry
	for ad, seeds := range seedSets {
		for _, u := range seeds {
			if m.stamp[u] == m.epoch {
				panic(fmt.Sprintf("cascade: node %d seeded for two ads", u))
			}
			m.stamp[u] = m.epoch
			m.owner[u] = int32(ad)
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: u, ad: int32(ad)})
		}
	}
	// claims[v] holds, during a round, the number of successful attempts
	// on v; the adopted ad is reservoir-sampled among them so each
	// succeeding ad wins with equal probability.
	winner := make(map[int32]int32)
	for len(frontier) > 0 {
		m.claimed = m.claimed[:0]
		for k := range winner {
			delete(winner, k)
		}
		for _, fe := range frontier {
			probs := m.probs[fe.ad]
			lo, _ := m.g.OutEdgeRange(fe.node)
			for i, v := range m.g.OutNeighbors(fe.node) {
				if m.stamp[v] == m.epoch {
					continue // already engaged in an earlier round
				}
				p := probs[lo+int64(i)]
				if p <= 0 || rng.Float64() >= float64(p) {
					continue
				}
				if m.claims[v] == 0 {
					m.claimed = append(m.claimed, v)
				}
				m.claims[v]++
				// Reservoir sampling over successful attempts.
				if rng.Intn(int(m.claims[v])) == 0 {
					winner[v] = fe.ad
				}
			}
		}
		frontier = frontier[:0]
		for _, v := range m.claimed {
			m.claims[v] = 0
			ad := winner[v]
			m.stamp[v] = m.epoch
			m.owner[v] = ad
			counts[ad]++
			frontier = append(frontier, frontierEntry{node: v, ad: ad})
		}
	}
	return counts
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
		for i, c := range wk.sim.RunOnce(seedSets, rng) {
			wk.totals[i] += int64(c)
		}
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
