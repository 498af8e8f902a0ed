package core

import "repro/internal/cascade"

// Evaluation is an algorithm-independent re-estimate of an allocation's
// value: every algorithm's output is scored with the same fresh
// Monte-Carlo simulation so that cross-algorithm comparisons (Figures 2–4)
// do not depend on each algorithm's internal estimator.
type Evaluation struct {
	// Spread[i] is the Monte-Carlo estimate of σ_i(S_i).
	Spread []float64
	// Revenue[i] is π_i = cpe(i)·σ_i(S_i).
	Revenue []float64
	// SeedCost[i] is c_i(S_i).
	SeedCost []float64
	// Payment[i] is ρ_i = π_i + c_i(S_i).
	Payment []float64
}

// TotalRevenue returns π(S⃗).
func (ev *Evaluation) TotalRevenue() float64 {
	var t float64
	for _, r := range ev.Revenue {
		t += r
	}
	return t
}

// TotalSeedCost returns Σ_i c_i(S_i).
func (ev *Evaluation) TotalSeedCost() float64 {
	var t float64
	for _, c := range ev.SeedCost {
		t += c
	}
	return t
}

// EvaluateCompetitive scores an allocation under the hard-competition
// propagation model (the paper's future-work item (iii)): all ads
// propagate simultaneously and each user engages with at most one ad per
// time window. Engagement counts — hence revenues — can only shrink
// relative to Engine.Evaluate's independent propagation. As there, the
// result depends on seed, never on workers.
func EvaluateCompetitive(p *Problem, a *Allocation, runs, workers int, seed uint64) *Evaluation {
	probs := make([][]float32, p.NumAds())
	for i := range probs {
		probs[i] = p.EdgeProbs(i)
	}
	sim := cascade.NewMultiAdSimulator(p.Graph, probs)
	return newEvaluation(p, a, sim.Engagements(a.Seeds, runs, workers, seed))
}

// newEvaluation prices an allocation from its per-ad spread estimates.
func newEvaluation(p *Problem, a *Allocation, spread []float64) *Evaluation {
	h := len(spread)
	ev := &Evaluation{
		Spread:   spread,
		Revenue:  make([]float64, h),
		SeedCost: make([]float64, h),
		Payment:  make([]float64, h),
	}
	for i := range spread {
		ev.Revenue[i] = p.Ads[i].CPE * spread[i]
		ev.SeedCost[i] = p.Incentives[i].TotalCost(a.Seeds[i])
		ev.Payment[i] = ev.Revenue[i] + ev.SeedCost[i]
	}
	return ev
}
