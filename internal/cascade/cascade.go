// Package cascade implements influence propagation under the (topic-aware)
// independent cascade model: single stochastic cascades, Monte-Carlo
// estimation of the expected spread σ(S), and exact computation by
// possible-world enumeration on tiny graphs (used as ground truth in
// tests).
//
// A cascade is parameterized by a graph plus a slice of ad-specific arc
// probabilities aligned with the graph's canonical edge IDs (produced by
// topic.Model.EdgeProbs, Eq. 1 of the paper). When a node u engages with
// the ad, it gets one chance to activate each out-neighbor v, succeeding
// with probability p^i_{u,v}.
package cascade

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Simulator runs independent-cascade simulations for one ad.
type Simulator struct {
	g     *graph.Graph
	probs []float32

	// Scratch state reused across runs (epoch trick avoids clearing).
	visited []int64
	epoch   int64
	queue   []int32
}

// NewSimulator builds a Simulator for the given graph and ad-specific arc
// probabilities (len must equal g.NumEdges()).
func NewSimulator(g *graph.Graph, probs []float32) *Simulator {
	if int64(len(probs)) != g.NumEdges() {
		panic(fmt.Sprintf("cascade: %d probs for %d edges", len(probs), g.NumEdges()))
	}
	return &Simulator{
		g:       g,
		probs:   probs,
		visited: make([]int64, g.NumNodes()),
		queue:   make([]int32, 0, 256),
	}
}

// RunOnce simulates a single cascade from seeds and returns the number of
// activated nodes (seeds included; duplicate seeds count once). Not safe
// for concurrent use — clone simulators per goroutine.
//
// The draws are exactly one Uint64 per arc out of an activated node
// whose target is not yet active and whose p > 0, in BFS order and CSR
// order within a node, compared as float64(x>>11)/2^53 < p — the
// RNG.Float64 coin. An arc with p ≤ 0 or NaN draws nothing. The
// xoshiro state lives in four locals for the whole cascade and is
// written back once, and the activated list doubles as the BFS queue,
// so a run allocates nothing once the list has grown to the largest
// cascade.
func (s *Simulator) RunOnce(seeds []int32, rng *xrand.RNG) int {
	s.epoch++
	epoch, visited := s.epoch, s.visited
	off, targets := s.g.CSR()
	// The activated nodes are the queue: the front is an index cursor.
	q := s.queue[:0]
	for _, u := range seeds {
		if visited[u] != epoch {
			visited[u] = epoch
			q = append(q, u)
		}
	}
	s0, s1, s2, s3 := rng.State()
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		lo, hi := off[u], off[u+1]
		vs := targets[lo:hi]
		ps := s.probs[lo:hi]
		ps = ps[:len(vs)] // lets ps[i] below go without a bounds check
		for i, v := range vs {
			if visited[v] == epoch {
				continue
			}
			p := ps[i]
			if !(p > 0) {
				continue
			}
			var x uint64
			x, s0, s1, s2, s3 = xrand.Next(s0, s1, s2, s3)
			if float64(x>>11)/(1<<53) < float64(p) {
				visited[v] = epoch
				q = append(q, v)
			}
		}
	}
	rng.SetState(s0, s1, s2, s3)
	s.queue = q[:0]
	return len(q)
}

// fanOut runs item i for every i in [0, n) on min(workers, n)
// goroutines, the first of them the caller's. Goroutine w builds its
// state once with newState(w) and keeps one RNG, which it reseeds to
// xrand.SlotSeed(seed, i) before item i: what item i draws depends on
// (seed, i) alone, never on workers or on which goroutine took it. It
// returns every goroutine's state for the caller to combine; summing
// exact integer totals keeps the combined result scheduling-free.
func fanOut[T any](n, workers int, seed uint64, newState func(w int) T, item func(st T, rng *xrand.RNG, i int)) []T {
	workers = max(1, min(workers, n))
	states := make([]T, workers)
	var next atomic.Int64
	work := func(w int) {
		st := newState(w)
		states[w] = st
		var rng xrand.RNG
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			rng.Seed(xrand.SlotSeed(seed, i))
			item(st, &rng, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return states
}

// spreadWorker is one Spread goroutine's simulator and activation total.
type spreadWorker struct {
	sim   *Simulator
	total int64
}

// Spread estimates σ(seeds) as the average activated count over runs
// Monte-Carlo cascades on up to workers goroutines; run r draws from
// xrand.SlotSeed(seed, r), so the estimate is a function of (seeds,
// runs, seed) alone. Like RunOnce it is not safe for concurrent use on
// one Simulator.
func (s *Simulator) Spread(seeds []int32, runs, workers int, seed uint64) float64 {
	if runs <= 0 {
		panic("cascade: Spread needs runs > 0")
	}
	ws := fanOut(runs, workers, seed, func(w int) *spreadWorker {
		if w == 0 {
			return &spreadWorker{sim: s}
		}
		return &spreadWorker{sim: NewSimulator(s.g, s.probs)}
	}, func(wk *spreadWorker, rng *xrand.RNG, _ int) {
		wk.total += int64(wk.sim.RunOnce(seeds, rng))
	})
	var total int64
	for _, wk := range ws {
		total += wk.total
	}
	return float64(total) / float64(runs)
}

// SingletonSpreads estimates σ({u}) for every node u from runs
// Monte-Carlo cascades on up to workers goroutines; node u's runs draw
// one after another from xrand.SlotSeed(seed, u). This mirrors the
// paper's 5K-run Monte-Carlo estimation of singleton spreads on
// FLIXSTER and EPINIONS (used to set seed incentives).
func SingletonSpreads(g *graph.Graph, probs []float32, runs, workers int, seed uint64) []float64 {
	out := make([]float64, g.NumNodes())
	fanOut(len(out), workers, seed, func(int) *Simulator {
		return NewSimulator(g, probs)
	}, func(sim *Simulator, rng *xrand.RNG, u int) {
		seeds := []int32{int32(u)}
		total := 0
		for r := 0; r < runs; r++ {
			total += sim.RunOnce(seeds, rng)
		}
		out[u] = float64(total) / float64(runs)
	})
	return out
}

// ExactSpread computes σ(seeds) exactly by enumerating all 2^m possible
// worlds. It panics when the graph has more than 24 arcs; it exists to
// provide ground truth for estimator tests on tiny graphs.
func ExactSpread(g *graph.Graph, probs []float32, seeds []int32) float64 {
	m := g.NumEdges()
	if m > 24 {
		panic(fmt.Sprintf("cascade: ExactSpread on %d edges would enumerate 2^%d worlds", m, m))
	}
	if int64(len(probs)) != m {
		panic("cascade: probs length mismatch")
	}
	n := g.NumNodes()
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	var expected float64
	for world := int64(0); world < int64(1)<<m; world++ {
		// Probability of this world.
		wp := 1.0
		for e := int64(0); e < m; e++ {
			p := float64(probs[e])
			if world&(1<<e) != 0 {
				wp *= p
			} else {
				wp *= 1 - p
			}
			if wp == 0 {
				break
			}
		}
		if wp == 0 {
			continue
		}
		// BFS over live edges.
		for i := range visited {
			visited[i] = false
		}
		q := queue[:0]
		count := 0
		for _, s := range seeds {
			if !visited[s] {
				visited[s] = true
				q = append(q, s)
				count++
			}
		}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			lo, _ := g.OutEdgeRange(u)
			for i, v := range g.OutNeighbors(u) {
				e := lo + int64(i)
				if world&(1<<e) != 0 && !visited[v] {
					visited[v] = true
					q = append(q, v)
					count++
				}
			}
		}
		expected += wp * float64(count)
	}
	return expected
}
