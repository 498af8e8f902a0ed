package core

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/xrand"
)

// SpreadOracle answers expected-spread queries σ_i(S) for any ad and seed
// set. The oracle abstraction lets the reference greedy algorithms run
// against exact enumeration (tiny graphs, tests) or Monte-Carlo estimation
// (small graphs).
type SpreadOracle interface {
	Spread(ad int, seeds []int32) float64
}

// ExactOracle computes spreads by possible-world enumeration. Usable only
// on graphs with at most 24 arcs.
type ExactOracle struct {
	p     *Problem
	probs [][]float32
}

// NewExactOracle builds an exact oracle for the problem.
func NewExactOracle(p *Problem) *ExactOracle {
	probs := make([][]float32, p.NumAds())
	for i := range probs {
		probs[i] = p.EdgeProbs(i)
	}
	return &ExactOracle{p: p, probs: probs}
}

// Spread implements SpreadOracle.
func (o *ExactOracle) Spread(ad int, seeds []int32) float64 {
	if len(seeds) == 0 {
		return 0
	}
	return cascade.ExactSpread(o.p.Graph, o.probs[ad], seeds)
}

// MCOracle estimates spreads by Monte-Carlo simulation with deterministic
// per-query reseeding, so repeated queries for the same (ad, set) give
// identical answers and marginals use common random numbers (run r of
// every query on an ad draws from the same seed).
type MCOracle struct {
	sims  []*cascade.Simulator
	seeds []uint64 // per-ad base seed of Simulator.Spread
	runs  int
}

// NewMCOracle builds a Monte-Carlo oracle performing the given number of
// runs per query.
func NewMCOracle(p *Problem, runs int, seed uint64) *MCOracle {
	o := &MCOracle{runs: runs}
	rng := xrand.New(seed)
	for i := 0; i < p.NumAds(); i++ {
		o.sims = append(o.sims, cascade.NewSimulator(p.Graph, p.EdgeProbs(i)))
		o.seeds = append(o.seeds, rng.Split().Uint64())
	}
	return o
}

// Spread implements SpreadOracle.
func (o *MCOracle) Spread(ad int, seeds []int32) float64 {
	if len(seeds) == 0 {
		return 0
	}
	return o.sims[ad].Spread(seeds, o.runs, 1, o.seeds[ad])
}

// CAGreedy is the Cost-Agnostic Greedy Algorithm (Algorithm 1): at each
// iteration pick the (node, advertiser) pair with the maximum marginal
// revenue π_i(u|S_i); add it if feasible, otherwise remove the pair from
// the ground set; stop when the ground set is empty.
func CAGreedy(p *Problem, oracle SpreadOracle) (*Allocation, error) {
	return referenceGreedy(p, oracle, false)
}

// CSGreedy is the Cost-Sensitive Greedy Algorithm (Section 3.2): identical
// to CAGreedy except the selection rule maximizes the rate of marginal
// revenue per marginal payment, π_i(u|S_i) / ρ_i(u|S_i).
func CSGreedy(p *Problem, oracle SpreadOracle) (*Allocation, error) {
	return referenceGreedy(p, oracle, true)
}

// pairState caches the marginal quantities of one (node, advertiser) pair;
// it stays valid until the advertiser's seed set changes.
type pairState struct {
	sigmaAfter float64 // σ_i(S_i ∪ {u})
	mpi        float64 // π_i(u | S_i)
	mrho       float64 // ρ_i(u | S_i)
	key        float64 // selection key (mpi, or mpi/mrho when cost-sensitive)
	fresh      bool
}

func referenceGreedy(p *Problem, oracle SpreadOracle, costSensitive bool) (*Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := p.NumAds()
	n := int(p.Graph.NumNodes())
	alloc := NewAllocation(h)

	// alive[i*n+u] is the current ground set E^t; state carries the memoized
	// marginals, invalidated per advertiser on assignment.
	alive := make([]bool, h*n)
	for idx := range alive {
		alive[idx] = true
	}
	state := make([]pairState, h*n)
	assigned := make([]bool, n)
	sigma := make([]float64, h) // σ_i(S_i) cache
	remaining := h * n

	refresh := func(i int, u int32) *pairState {
		st := &state[i*n+int(u)]
		if st.fresh {
			return st
		}
		s := oracle.Spread(i, append(alloc.Seeds[i], u))
		mpi := p.Ads[i].CPE * (s - sigma[i])
		if mpi < 0 {
			mpi = 0 // estimator noise guard; σ is monotone
		}
		mrho := mpi + p.Incentives[i].Cost(u)
		key := mpi
		if costSensitive {
			den := mrho
			if den < 1e-12 {
				den = 1e-12
			}
			key = mpi / den
		}
		*st = pairState{sigmaAfter: s, mpi: mpi, mrho: mrho, key: key, fresh: true}
		return st
	}

	for remaining > 0 {
		bestI, bestU := -1, int32(-1)
		bestKey := -1.0
		for i := 0; i < h; i++ {
			for u := int32(0); u < int32(n); u++ {
				if !alive[i*n+int(u)] {
					continue
				}
				st := refresh(i, u)
				if st.key > bestKey {
					bestI, bestU, bestKey = i, u, st.key
				}
			}
		}
		if bestI < 0 {
			break
		}
		st := state[bestI*n+int(bestU)]
		// Feasibility: partition matroid (node unassigned) and the
		// advertiser's submodular knapsack ρ_i(S_i ∪ {u}) ≤ B_i.
		feasible := !assigned[bestU] &&
			alloc.Payment[bestI]+st.mrho <= p.Ads[bestI].Budget
		if feasible {
			alloc.Seeds[bestI] = append(alloc.Seeds[bestI], bestU)
			assigned[bestU] = true
			sigma[bestI] = st.sigmaAfter
			alloc.Revenue[bestI] += st.mpi
			alloc.SeedCost[bestI] += p.Incentives[bestI].Cost(bestU)
			alloc.Payment[bestI] = alloc.Revenue[bestI] + alloc.SeedCost[bestI]
			// The advertiser's marginals all changed.
			for u := 0; u < n; u++ {
				state[bestI*n+u].fresh = false
			}
		}
		// Either way the tested pair leaves the ground set (Alg. 1 lines
		// 9 and 12).
		alive[bestI*n+int(bestU)] = false
		remaining--
	}
	if err := alloc.Validate(p); err != nil {
		return nil, fmt.Errorf("core: reference greedy produced invalid allocation: %w", err)
	}
	return alloc, nil
}
