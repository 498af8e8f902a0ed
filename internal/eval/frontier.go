package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/incentive"
)

// The quality-vs-time frontier: every registered engine algorithm, head
// to head on the preset datasets, positioned by MC-evaluated revenue
// (normalized to TI-CSRM, the paper's winner) against wall-clock and
// peak sampler memory. This is the experiment the Han & Cui comparison
// lives in: their claim is large speedups over TI-CSRM/TI-CARM at
// comparable revenue, so the interesting rows are the hc-* ones — a
// revenue ratio near 1 at a fraction of the wall-clock confirms it on
// our substrate, anything else quantifies the gap.

// FrontierPoint is one (dataset, algorithm) frontier measurement.
type FrontierPoint struct {
	Dataset string
	// Algorithm is the eval-level identity; Info the registry entry it
	// runs (Info.Name is the canonical label in tables and JSON).
	Algorithm Algorithm
	Info      core.AlgorithmInfo
	// Revenue is MC-evaluated; RevenueRatio normalizes it to the
	// TI-CSRM row of the same dataset (TI-CSRM itself is 1).
	Revenue      float64
	RevenueRatio float64
	SeedCost     float64
	Seeds        int
	Duration     time.Duration
	// Speedup is the TI-CSRM wall-clock divided by this row's (>1 means
	// faster than the reference).
	Speedup      float64
	RRSets       int64
	MemBytes     int64
	SamplerBytes int64
	Workers      int
}

// Frontier sweeps every registered algorithm on each preset dataset and
// returns the per-dataset frontier rows in registry order. PageRank
// scores are computed once per dataset and shared by the modes that need
// them. The reference algorithm (TI-CSRM) is solved first — registry
// order guarantees it — so ratios are filled in a single pass.
func Frontier(ctx context.Context, datasets []string, params Params,
	progress func(string)) ([]FrontierPoint, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.1
	}
	if progress == nil {
		progress = func(string) {}
	}
	var points []FrontierPoint
	for _, dsName := range datasets {
		w, err := NewWorkbench(dsName, params)
		if err != nil {
			return nil, err
		}
		p := w.Problem(incentive.Linear, 0.2)
		var prScores [][]float64
		var refRevenue float64
		var refDuration time.Duration
		for _, info := range core.Algorithms() {
			alg, ok := ModeAlgorithm(info.Mode)
			if !ok {
				// A mode without an eval bridge would silently vanish from
				// the frontier; fail loudly instead.
				return nil, fmt.Errorf("eval: registered mode %q has no eval algorithm", info.Name)
			}
			if info.NeedsPRScores && prScores == nil {
				prScores = baseline.ScoresForProblem(p, baseline.PageRankOptions{})
			}
			progress(fmt.Sprintf("%s %s", dsName, info.Name))
			res, err := RunAlgorithm(ctx, w.Engine(), p, alg, params, prScores)
			if err != nil {
				return nil, err
			}
			pt := FrontierPoint{
				Dataset:      dsName,
				Algorithm:    alg,
				Info:         info,
				Revenue:      res.Revenue,
				SeedCost:     res.SeedCost,
				Seeds:        res.Seeds,
				Duration:     res.Duration,
				RRSets:       res.RRSets,
				MemBytes:     res.MemBytes,
				SamplerBytes: res.SamplerBytes,
				Workers:      res.SampleWorkers,
			}
			if info.Mode == core.ModeCostSensitive {
				refRevenue, refDuration = res.Revenue, res.Duration
			}
			if refRevenue > 0 {
				pt.RevenueRatio = res.Revenue / refRevenue
			}
			if res.Duration > 0 && refDuration > 0 {
				pt.Speedup = refDuration.Seconds() / res.Duration.Seconds()
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// FrontierTable renders the frontier rows, one line per (dataset,
// algorithm) in sweep order.
func FrontierTable(points []FrontierPoint) *Table {
	t := &Table{
		Title: "Quality-vs-time frontier: all registered algorithms, linear incentives (α=0.2)",
		Header: []string{"dataset", "algorithm", "revenue", "revenue_ratio", "seconds",
			"speedup_vs_ti-csrm", "rr_sets", "rr_mem_mb", "sampler_mem_mb", "seeds"},
	}
	for _, pt := range points {
		t.Append(pt.Dataset, pt.Info.Name, pt.Revenue, pt.RevenueRatio,
			pt.Duration.Seconds(), pt.Speedup, pt.RRSets,
			float64(pt.MemBytes)/(1<<20), float64(pt.SamplerBytes)/(1<<20), pt.Seeds)
	}
	return t
}

// FrontierRuns converts frontier points to schema-v1 bench runs.
func FrontierRuns(points []FrontierPoint, params Params) []BenchRun {
	runs := make([]BenchRun, len(points))
	for i, pt := range points {
		runs[i] = BenchRun{
			Dataset:            pt.Dataset,
			Algorithm:          pt.Info.Name,
			Kind:               incentive.Linear.String(),
			Alpha:              0.2,
			H:                  params.withDefaults().H,
			Revenue:            pt.Revenue,
			SeedCost:           pt.SeedCost,
			Seeds:              pt.Seeds,
			WallSeconds:        pt.Duration.Seconds(),
			RRSets:             pt.RRSets,
			RRMemoryBytes:      pt.MemBytes,
			SamplerMemoryBytes: pt.SamplerBytes,
			SampleWorkers:      pt.Workers,
		}
	}
	return runs
}
