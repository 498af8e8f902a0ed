package im

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xmath"
	"repro/internal/xrand"
)

// IMM implements Influence Maximization via Martingales (Tang, Shi, Xiao
// — SIGMOD 2015), the successor of TIM the paper discusses in Section
// 4.1: it replaces TIM's KPT estimation with a sampling-based search for
// a lower bound LB on OPT_k, tightening the RR sample size. The paper
// notes IMM cannot serve as the RM problem's influence *oracle* (its
// sample is tuned only for the greedily selected seed set of one known
// size k), which is exactly why the engine extends TIM instead — IMM is
// provided here as part of the standalone IM substrate.
//
// Following the paper's Algorithm 1 (Sampling): for i = 1, 2, …,
// log₂(n)−1, draw θ_i = λ'/x_i RR sets (x_i = n/2^i); if the greedy
// max-coverage solution covers a fraction F with n·F ≥ (1+ε')·x_i, accept
// LB = n·F/(1+ε'); then sample θ = λ*/LB sets and run greedy max
// coverage.
func IMM(ctx context.Context, g *graph.Graph, probs []float32, k int, opt TIMOptions, rng *xrand.RNG) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 || int64(k) > int64(g.NumNodes()) {
		return Result{}, fmt.Errorf("%w: IMM k=%d out of range for %d nodes", ErrInvalidInput, k, g.NumNodes())
	}
	opt = opt.withDefaults()
	n := int64(g.NumNodes())
	if k == 0 || n <= 1 {
		return Result{}, nil
	}
	eps := opt.Epsilon
	ell := opt.Ell
	// Rescale ℓ so the overall success probability stays 1 − n^−ℓ across
	// the log₂(n) union bound (IMM paper, Section 3.2).
	ellPrime := ell * (1 + math.Log(2)/math.Log(float64(n)))

	logNChooseK := xmath.LogChoose(int(n), k)
	// λ' for the LB-search phase (IMM Eq. 9, with ε' = √2·ε).
	epsPrime := math.Sqrt2 * eps
	lambdaPrime := (2 + 2*epsPrime/3) *
		(logNChooseK + ellPrime*math.Log(float64(n)) + math.Log(math.Log2(float64(n)))) *
		float64(n) / (epsPrime * epsPrime)
	// λ* for the final sample (IMM Eq. 6).
	alpha := math.Sqrt(ellPrime*math.Log(float64(n)) + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) *
		(logNChooseK + ellPrime*math.Log(float64(n)) + math.Log(2)))
	lambdaStar := 2 * float64(n) * (((1-1/math.E)*alpha + beta) / eps) * (((1-1/math.E)*alpha + beta) / eps)

	pool := opt.poolFor(g)
	sp := rrset.NewSampleProbs(g, probs)
	sampler := pool.NewStream(sp, rng.Uint64())
	coll := rrset.NewCollection(g.NumNodes())
	lb := 1.0
	maxRounds := int(math.Log2(float64(n)))
	for i := 1; i < maxRounds; i++ {
		x := float64(n) / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if thetaI > opt.MaxTheta {
			thetaI = opt.MaxTheta
		}
		if coll.Size() < thetaI {
			if err := coll.AddFromParallelCtx(ctx, sampler, thetaI-coll.Size()); err != nil {
				return Result{}, err
			}
		}
		// Greedy max coverage in place; coverage state is reset afterwards.
		frac := greedyCoverageFraction(coll, k)
		cand := float64(n) * frac / (1 + epsPrime)
		if float64(n)*frac >= (1+epsPrime)*x {
			lb = cand
			break
		}
		if thetaI >= opt.MaxTheta {
			// Capped before the coverage test ever passed: carry this
			// round's coverage-derived bound n·F/(1+ε') instead of the
			// trivial lb = 1 (the old behavior), which inflated the final
			// sample straight to MaxTheta. The collection is cumulative, so
			// this capped round's estimate comes from the largest sample —
			// and the very θ = MaxTheta the final phase is limited to —
			// making it the round whose greedy coverage is least overfit
			// (earlier, smaller rounds only ever inflate the bound).
			if cand > 1 {
				lb = cand
			}
			break
		}
	}

	theta := int(math.Ceil(lambdaStar / lb))
	if theta > opt.MaxTheta {
		theta = opt.MaxTheta
	}
	final := rrset.NewCollection(g.NumNodes())
	if err := final.AddFromParallelCtx(ctx, pool.NewStream(sp, rng.Uint64()), theta); err != nil {
		return Result{Theta: theta, Kpt: lb}, err
	}
	seeds := make([]int32, 0, k)
	for len(seeds) < k {
		v, cnt := final.MaxCovCount(nil)
		if v < 0 || cnt == 0 {
			break
		}
		final.CoverBy(v)
		seeds = append(seeds, v)
	}
	est := float64(n) * float64(final.NumCovered()) / float64(final.Size())
	return Result{Seeds: seeds, SpreadEstimate: est, Theta: theta, Kpt: lb}, nil
}

// greedyCoverageFraction runs greedy max coverage directly on the
// collection and returns the covered fraction, restoring the pristine
// (no-seeds) coverage state before returning. The pre-arena version
// duplicated every stored set into a throwaway collection per probe —
// O(θ · |R|) allocations each LB-search round; running in place with
// ResetCoverage leaves only the selection work itself.
func greedyCoverageFraction(c *rrset.Collection, k int) float64 {
	if c.Size() == 0 {
		return 0
	}
	for i := 0; i < k; i++ {
		v, cnt := c.MaxCovCount(nil)
		if v < 0 || cnt == 0 {
			break
		}
		c.CoverBy(v)
	}
	frac := float64(c.NumCovered()) / float64(c.Size())
	c.ResetCoverage()
	return frac
}

// BudgetedGreedy solves Budgeted Influence Maximization (Leskovec et al.
// 2007; Nguyen & Zheng 2013 — the paper's references [26, 31], and the
// κ_ρ = 0 special case of its Theorems 2–3): maximize spread subject to a
// *linear* knapsack Σ_{u∈S} cost(u) ≤ budget. It runs both the
// cost-agnostic and the cost-sensitive (benefit/cost) greedy rules on a
// shared RR sample and returns the better of the two solutions — the
// classic max(UC, CB) trick that restores a constant-factor guarantee
// that neither rule has alone. Of opt only Workers is consulted — the
// sample size is the explicit theta, not Eq. 8 — and opt.Workers <= 1
// reproduces the sequential sampler bit for bit.
func BudgetedGreedy(ctx context.Context, g *graph.Graph, probs []float32, costs []float64, budget float64,
	theta int, opt TIMOptions, rng *xrand.RNG) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(costs) != int(g.NumNodes()) {
		return Result{}, fmt.Errorf("%w: BudgetedGreedy needs one cost per node (%d costs, %d nodes)",
			ErrInvalidInput, len(costs), g.NumNodes())
	}
	if theta < 1 {
		return Result{}, fmt.Errorf("%w: BudgetedGreedy needs theta >= 1 (got %d)", ErrInvalidInput, theta)
	}
	opt = opt.withDefaults()
	base := rrset.NewCollection(g.NumNodes())
	if err := base.AddFromParallelCtx(ctx, opt.poolFor(g).NewStream(rrset.NewSampleProbs(g, probs), rng.Uint64()), theta); err != nil {
		return Result{Theta: theta}, err
	}

	// Both rules run greedy selection in place on the shared sample and
	// hand the pristine coverage state back through ResetCoverage — the
	// pre-arena code duplicated the whole collection per rule. The
	// cost-agnostic rule is a pure maximum-coverage query and goes through
	// the indexed MaxCovCount (identical choices to the old linear scan,
	// including the lowest-ID tie-break); the benefit/cost rule orders by
	// a ratio the count-keyed bucket queue cannot index, so it keeps its
	// linear scan over CovCount.
	run := func(costSensitive bool) ([]int32, float64) {
		var seeds []int32
		spent := 0.0
		banned := make([]bool, g.NumNodes())
		unbanned := func(v int32) bool { return !banned[v] }
		for {
			best := int32(-1)
			if costSensitive {
				bestKey := 0.0
				for v := int32(0); v < g.NumNodes(); v++ {
					if banned[v] || base.CovCount(v) == 0 {
						continue
					}
					den := costs[v]
					if den < 1e-12 {
						den = 1e-12
					}
					if key := float64(base.CovCount(v)) / den; key > bestKey {
						best, bestKey = v, key
					}
				}
			} else if v, cnt := base.MaxCovCount(unbanned); v >= 0 && cnt > 0 {
				best = v
			}
			if best < 0 {
				break
			}
			if spent+costs[best] > budget {
				banned[best] = true // permanent removal, as in Alg. 1
				continue
			}
			base.CoverBy(best)
			seeds = append(seeds, best)
			spent += costs[best]
			banned[best] = true
		}
		spread := float64(g.NumNodes()) * float64(base.NumCovered()) / float64(base.Size())
		base.ResetCoverage()
		return seeds, spread
	}

	caSeeds, caSpread := run(false)
	csSeeds, csSpread := run(true)
	if caSpread >= csSpread {
		return Result{Seeds: caSeeds, SpreadEstimate: caSpread, Theta: theta}, nil
	}
	return Result{Seeds: csSeeds, SpreadEstimate: csSpread, Theta: theta}, nil
}
