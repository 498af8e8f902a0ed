package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// AdaptiveOptions configures the adaptive allocation loop of the paper's
// future-work item (iv): "an online adaptive setting where the partial
// results of the campaign can be taken into account while deciding the
// next moves".
type AdaptiveOptions struct {
	// Engine holds the per-round engine configuration (mode, ε, window,
	// caps). The engine seed is varied per round.
	Engine Options
	// Rounds is the number of observe-then-replan rounds (default 4).
	Rounds int
	// WorldSeed drives the single ground-truth realization that both the
	// adaptive and the one-shot policies are scored on.
	WorldSeed uint64
}

// AdaptiveRound records one observe-then-replan step.
type AdaptiveRound struct {
	// Committed[i] is the number of seeds committed for ad i this round.
	Committed []int
	// Realized[i] is the number of newly engaged users of ad i after the
	// committed seeds' cascades played out.
	Realized []int
}

// AdaptiveResult compares the adaptive policy against the one-shot
// allocation in the same realized world.
type AdaptiveResult struct {
	// Rounds traces the adaptive run.
	Rounds []AdaptiveRound
	// AdaptiveSeeds[i] is ad i's final seed set under the adaptive policy.
	AdaptiveSeeds [][]int32
	// AdaptiveRevenue is the realized revenue Σ_i cpe(i)·(engagements of
	// ad i) of the adaptive policy.
	AdaptiveRevenue float64
	// AdaptiveSeedCost is the total incentives the adaptive policy paid.
	AdaptiveSeedCost float64
	// OneShotRevenue is the realized revenue of the non-adaptive
	// allocation (the plain engine run committed all at once) in the SAME
	// world.
	OneShotRevenue float64
	// OneShotSeedCost is the total incentives of the one-shot allocation.
	OneShotSeedCost float64
}

// AdaptiveRun executes the adaptive seeding policy: in each round the
// engine re-plans with every advertiser's *remaining* budget (expected
// payments minus what the realized campaign has actually consumed) and
// the already-engaged users excluded from the candidate pool; a batch of
// the newly planned seeds is committed; the committed seeds' cascades are
// realized in a fixed possible world; and the realized engagement costs
// are charged. The one-shot engine allocation is realized in the same
// world for comparison.
//
// Observing realizations lets the adaptive policy reinvest when cascades
// under-perform their expectation and stop spending when they
// over-perform — the advantage the paper anticipates for the online
// setting.
func AdaptiveRun(p *Problem, opt AdaptiveOptions) (*AdaptiveResult, error) {
	return NewEngine(p.Graph, p.Model, EngineOptions{}).AdaptiveRun(context.Background(), p, opt)
}

// AdaptiveRun is the Engine-hosted adaptive loop: the observe-then-replan
// rounds re-solve through this Engine, amortizing its scratch pool and
// memoized probabilities across rounds — the replanning workload the
// session API exists for. With Options.ShareSamples, each round solves
// under a round-specific seed whose cached universe can never be hit
// again within the run, so those one-shot entries are evicted as soon as
// the round's plan is committed, keeping the cache's peak at one round's
// worth (the one-shot reference solve's universe, which a plain Solve of
// the same instance would share, is kept).
// Cancellation aborts between (and inside) rounds with ErrCanceled.
func (eng *Engine) AdaptiveRun(ctx context.Context, p *Problem, opt AdaptiveOptions) (*AdaptiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrInvalidProblem, err)
	}
	// The worlds below are simulated with this Engine's probabilities;
	// reject a foreign problem before touching them (Solve would, but
	// only after the worlds were built on mismatched arc counts).
	if err := eng.checkOwnership(p); err != nil {
		return nil, err
	}
	if opt.Rounds == 0 {
		opt.Rounds = 4
	}
	if opt.Rounds < 1 {
		return nil, fmt.Errorf("core: %w: AdaptiveRun needs at least one round", ErrInvalidProblem)
	}
	h := p.NumAds()
	wrng := xrand.New(opt.WorldSeed)
	worlds := make([]*cascade.World, h)
	for i := 0; i < h; i++ {
		worlds[i] = cascade.NewWorld(p.Graph, eng.edgeProbsFor(p.Ads[i].Gamma), wrng.Split())
	}

	// One-shot reference: plan once with full budgets, realize everything
	// in an identical copy of the worlds.
	oneShot, _, err := eng.Solve(ctx, p, opt.Engine)
	if err != nil {
		return nil, err
	}
	res := &AdaptiveResult{AdaptiveSeeds: make([][]int32, h)}
	refRng := xrand.New(opt.WorldSeed)
	for i := 0; i < h; i++ {
		refWorld := cascade.NewWorld(p.Graph, eng.edgeProbsFor(p.Ads[i].Gamma), refRng.Split())
		engaged := refWorld.Activate(oneShot.Seeds[i])
		res.OneShotRevenue += p.Ads[i].CPE * float64(engaged)
		res.OneShotSeedCost += p.Incentives[i].TotalCost(oneShot.Seeds[i])
	}

	// Adaptive loop state.
	spent := make([]float64, h) // realized payments so far
	committed := make([][]int32, h)
	var forbidden []int32 // committed seeds: globally unavailable (matroid)

	for round := 0; round < opt.Rounds; round++ {
		// Re-plan with remaining budgets. Committed seeds are globally
		// unavailable; users already engaged with ad i are excluded from
		// ad i's pool only (seeding them buys no new engagements), but
		// remain valid seeds for other ads under independent propagation.
		ads := make([]topic.Ad, h)
		copy(ads, p.Ads)
		active := false
		for i := range ads {
			rem := ads[i].Budget - spent[i]
			if rem <= 0 {
				rem = 1e-9 // keep the instance valid; no seed will fit
			} else {
				active = true
			}
			ads[i].Budget = rem
		}
		if !active {
			break
		}
		excluded := make([][]int32, h)
		for i := 0; i < h; i++ {
			for u := int32(0); u < p.Graph.NumNodes(); u++ {
				if worlds[i].Activated(u) {
					excluded[i] = append(excluded[i], u)
				}
			}
		}
		sub := &Problem{Graph: p.Graph, Model: p.Model, Ads: ads, Incentives: p.Incentives}
		ropt := opt.Engine
		ropt.Seed = opt.Engine.Seed ^ (uint64(round)+1)*0x9e3779b97f4a7c15
		ropt.ForbiddenNodes = forbidden
		ropt.ExcludedNodes = excluded
		var keep map[universeKey]bool
		if ropt.ShareSamples {
			keep = eng.universeKeys()
		}
		plan, _, err := eng.Solve(ctx, sub, ropt)
		if ropt.ShareSamples {
			// The round seed is unique to this round: its universes can
			// never be hit again, so drop them before the next round grows
			// its own (bounds the cache's peak at one round's worth).
			eng.evictUniversesExcept(keep)
		}
		if err != nil {
			return nil, err
		}

		// Commit a 1/(rounds−round) fraction of each plan (all of it in
		// the final round), then realize and charge.
		roundRec := AdaptiveRound{Committed: make([]int, h), Realized: make([]int, h)}
		progressed := false
		for i := 0; i < h; i++ {
			planned := plan.Seeds[i]
			if len(planned) == 0 {
				continue
			}
			take := int(math.Ceil(float64(len(planned)) / float64(opt.Rounds-round)))
			batch := planned[:take]
			committed[i] = append(committed[i], batch...)
			forbidden = append(forbidden, batch...)
			newly := worlds[i].Activate(batch)
			spent[i] += p.Ads[i].CPE*float64(newly) + p.Incentives[i].TotalCost(batch)
			roundRec.Committed[i] = len(batch)
			roundRec.Realized[i] = newly
			progressed = true
		}
		res.Rounds = append(res.Rounds, roundRec)
		if !progressed {
			break
		}
	}

	for i := 0; i < h; i++ {
		res.AdaptiveSeeds[i] = committed[i]
		res.AdaptiveRevenue += p.Ads[i].CPE * float64(worlds[i].NumActivated())
		res.AdaptiveSeedCost += p.Incentives[i].TotalCost(committed[i])
	}
	return res, nil
}
