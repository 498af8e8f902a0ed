package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/submod"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// ---------------------------------------------------------------------------
// Table 1 — dataset statistics.

// DatasetStats reproduces Table 1: node/edge counts and type of every
// dataset preset, side by side with the paper's full-scale figures.
func DatasetStats(params Params) (*Table, error) {
	params = params.withDefaults()
	t := &Table{
		Title:  "Table 1: statistics of network datasets (scale=" + params.Scale.String() + ")",
		Header: []string{"dataset", "nodes", "edges", "type", "paper-nodes", "paper-edges"},
	}
	rng := xrand.New(params.Seed)
	for _, name := range gen.AllNames() {
		ds, err := gen.ByName(name, params.Scale, rng)
		if err != nil {
			return nil, err
		}
		typ := "directed"
		if !ds.Directed {
			typ = "undirected"
		}
		t.Append(name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), typ, ds.PaperNodes, ds.PaperEdges)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Table 2 — advertiser budgets and CPEs.

// BudgetStats reproduces Table 2: mean/max/min of the advertiser budgets
// and CPE values drawn for the quality datasets.
func BudgetStats(params Params) (*Table, error) {
	params = params.withDefaults()
	t := &Table{
		Title: "Table 2: advertiser budgets and cost-per-engagement values",
		Header: []string{"dataset", "budget-mean", "budget-max", "budget-min",
			"cpe-mean", "cpe-max", "cpe-min"},
	}
	for _, name := range []string{"flixster", "epinions"} {
		w, err := NewWorkbench(name, params)
		if err != nil {
			return nil, err
		}
		var bMean, bMax, bMin, cMean, cMax, cMin float64
		bMin, cMin = math.Inf(1), math.Inf(1)
		for _, ad := range w.Ads {
			bMean += ad.Budget
			cMean += ad.CPE
			bMax = math.Max(bMax, ad.Budget)
			bMin = math.Min(bMin, ad.Budget)
			cMax = math.Max(cMax, ad.CPE)
			cMin = math.Min(cMin, ad.CPE)
		}
		h := float64(len(w.Ads))
		t.Append(name, bMean/h, bMax, bMin, cMean/h, cMax, cMin)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 1 — tightness instance.

// Fig1Report verifies the Theorem 2 tightness gadget end to end and
// reports the quantities the paper derives from it.
func Fig1Report() (*Table, error) {
	p := core.Fig1Instance()
	oracle := core.NewExactOracle(p)
	ca, err := core.CAGreedy(p, oracle)
	if err != nil {
		return nil, err
	}
	cs, err := core.CSGreedy(p, oracle)
	if err != nil {
		return nil, err
	}
	n := int(p.Graph.NumNodes())
	pi := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
		var seeds []int32
		for _, e := range m.Elements() {
			seeds = append(seeds, int32(e))
		}
		return oracle.Spread(0, seeds)
	}}
	rho := submod.Function{N: n, Eval: func(m submod.Mask) float64 {
		v := pi.Eval(m)
		for _, e := range m.Elements() {
			v += p.Incentives[0].Cost(int32(e))
		}
		return v
	}}
	fam := submod.Knapsack{Cost: rho, Budget: p.Ads[0].Budget}
	r, bigR := submod.Ranks(fam)
	kappa := submod.TotalCurvature(pi)
	_, opt := submod.BruteForceMax(pi, fam)

	t := &Table{
		Title:  "Figure 1: tightness instance for Theorem 2",
		Header: []string{"quantity", "value", "paper"},
	}
	t.Append("OPT revenue", opt, 6)
	t.Append("CA-GREEDY revenue", ca.TotalRevenue(), 3)
	t.Append("CS-GREEDY revenue", cs.TotalRevenue(), 6)
	t.Append("total curvature", kappa, 1)
	t.Append("lower rank r", r, 1)
	t.Append("upper rank R", bigR, 2)
	t.Append("Theorem 2 bound", submod.CABound(kappa, r, bigR), 0.5)
	return t, nil
}

// ---------------------------------------------------------------------------
// Figures 2 and 3 — revenue and seeding cost vs α.

// QualityResult extends RunResult with the sweep coordinates.
type QualityCell struct {
	Dataset string
	Kind    incentive.Kind
	Alpha   float64
	Results map[Algorithm]RunResult
}

// QualitySweep runs the full Figure 2/3 grid: dataset × incentive model ×
// α × algorithm, with ε = 0.1 (the paper's quality setting) unless
// overridden. Figure 2 reads Revenue, Figure 3 reads SeedCost from the
// same runs. Every run in a dataset's grid solves warm on the
// workbench's one Engine; ctx cancels the whole sweep.
func QualitySweep(ctx context.Context, datasets []string, kinds []incentive.Kind, algorithms []Algorithm,
	params Params, progress func(string)) ([]QualityCell, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.1
	}
	if progress == nil {
		progress = func(string) {}
	}
	var cells []QualityCell
	for _, dsName := range datasets {
		w, err := NewWorkbench(dsName, params)
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			for _, alpha := range AlphaGrid(dsName, kind, params.AlphaPoints) {
				p := w.Problem(kind, alpha)
				// PageRank scores depend only on the dataset/ads, but we
				// recompute per problem to keep runs independent; they are
				// shared across the two PR baselines.
				var prScores [][]float64
				cell := QualityCell{Dataset: dsName, Kind: kind, Alpha: alpha,
					Results: map[Algorithm]RunResult{}}
				for _, alg := range algorithms {
					if (alg == AlgPageRankGR || alg == AlgPageRankRR) && prScores == nil {
						prScores = baseline.ScoresForProblem(p, baseline.PageRankOptions{})
					}
					progress(fmt.Sprintf("%s %v α=%.4g %v", dsName, kind, alpha, alg))
					res, err := RunAlgorithm(ctx, w.Engine(), p, alg, params, prScores)
					if err != nil {
						return nil, err
					}
					res.Dataset = dsName
					res.Kind = kind
					res.Alpha = alpha
					res.H = params.H
					cell.Results[alg] = res
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// RevenueVsAlphaTable renders Figure 2 (total revenue as a function of α).
func RevenueVsAlphaTable(cells []QualityCell, algorithms []Algorithm) *Table {
	t := &Table{
		Title:  "Figure 2: total revenue vs alpha",
		Header: []string{"dataset", "incentive", "alpha"},
	}
	for _, a := range algorithms {
		t.Header = append(t.Header, a.String())
	}
	for _, c := range cells {
		row := []interface{}{c.Dataset, c.Kind.String(), c.Alpha}
		for _, a := range algorithms {
			row = append(row, c.Results[a].Revenue)
		}
		t.Append(row...)
	}
	return t
}

// SeedCostVsAlphaTable renders Figure 3 (total seeding cost vs α).
func SeedCostVsAlphaTable(cells []QualityCell, algorithms []Algorithm) *Table {
	t := &Table{
		Title:  "Figure 3: total seeding cost vs alpha",
		Header: []string{"dataset", "incentive", "alpha"},
	}
	for _, a := range algorithms {
		t.Header = append(t.Header, a.String())
	}
	for _, c := range cells {
		row := []interface{}{c.Dataset, c.Kind.String(), c.Alpha}
		for _, a := range algorithms {
			row = append(row, c.Results[a].SeedCost)
		}
		t.Append(row...)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 4 — revenue vs running time across window sizes.

// WindowPoint is one (window, revenue, time) measurement.
type WindowPoint struct {
	Dataset  string
	Alpha    float64
	Window   int // 0 denotes the full window (w = n)
	Revenue  float64
	Duration time.Duration
}

// WindowTradeoff reproduces Figure 4: TI-CSRM restricted to window size w
// for w in sizes (use 0 for the full window), linear incentives, on the
// given quality dataset.
func WindowTradeoff(ctx context.Context, dataset string, alphas []float64, sizes []int, params Params,
	progress func(string)) ([]WindowPoint, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.1
	}
	if progress == nil {
		progress = func(string) {}
	}
	w, err := NewWorkbench(dataset, params)
	if err != nil {
		return nil, err
	}
	var out []WindowPoint
	for _, alpha := range alphas {
		p := w.Problem(incentive.Linear, alpha)
		for _, size := range sizes {
			progress(fmt.Sprintf("%s α=%.4g w=%d", dataset, alpha, size))
			run := params
			run.Window = size
			res, err := RunAlgorithm(ctx, w.Engine(), p, AlgTICSRM, run, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, WindowPoint{
				Dataset: dataset, Alpha: alpha, Window: size,
				Revenue: res.Revenue, Duration: res.Duration,
			})
		}
	}
	return out, nil
}

// WindowTradeoffTable renders the Figure 4 series.
func WindowTradeoffTable(points []WindowPoint) *Table {
	t := &Table{
		Title:  "Figure 4: revenue vs running time across window sizes (TI-CSRM)",
		Header: []string{"dataset", "alpha", "window", "revenue", "seconds"},
	}
	for _, pt := range points {
		win := fmt.Sprintf("%d", pt.Window)
		if pt.Window == 0 {
			win = "N"
		}
		t.Append(pt.Dataset, pt.Alpha, win, pt.Revenue, pt.Duration.Seconds())
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5 and Table 3 — scalability and memory.

// ScalePoint is one scalability measurement.
type ScalePoint struct {
	Dataset      string
	Algorithm    Algorithm
	H            int
	Budget       float64
	Revenue      float64 // MC-evaluated π(S⃗) of the run's allocation
	SeedCost     float64 // Σᵢ cᵢ(Sᵢ), the allocation's incentive spend
	Duration     time.Duration
	MemBytes     int64 // RR-set store footprint (shard universes and views)
	SamplerBytes int64 // shared sampling-pool scratch, O(workers·n)
	Seeds        int
	RRSets       int64 // total RR sets sampled
	Workers      int   // RR-sampling scratch slots for the run
	Shards       int   // engine's resolved RR-shard count (≥ 1)
}

// RRThroughput returns RR sets sampled per second of algorithm runtime.
func (p ScalePoint) RRThroughput() float64 { return rrThroughput(p.RRSets, p.Duration) }

// scaleSrc is the fixed part of a Figure 5 sweep: the dataset, its
// weighted-cascade model, and one warm Engine. Cached per construction
// parameters so that fig5a, fig5c and table3 runs in the same process
// build each (dataset, scale) once and solve warm instead of
// regenerating the graph per experiment.
type scaleSrc struct {
	ds    gen.Dataset
	model *topic.Model
	eng   *core.Engine
}

var scaleSrcCache = struct {
	sync.Mutex
	m map[workbenchKey]*scaleSrc
}{m: map[workbenchKey]*scaleSrc{}}

// scalabilitySource resolves the dataset for a scalability sweep through
// dataset.Default and attaches WC probabilities (the paper's Figure 5
// setting) regardless of the preset's quality-run model.
func scalabilitySource(name string, params Params) (*scaleSrc, error) {
	key := workbenchKey{
		dataset:       name,
		scale:         params.Scale,
		seed:          params.Seed,
		sampleWorkers: params.SampleWorkers,
		shards:        params.Shards,
	}
	scaleSrcCache.Lock()
	defer scaleSrcCache.Unlock()
	if s, ok := scaleSrcCache.m[key]; ok {
		return s, nil
	}
	rng := xrand.New(params.Seed)
	src, err := dataset.Default.Open(name, params.Scale, rng)
	if err != nil {
		return nil, err
	}
	s := &scaleSrc{ds: src.Dataset, model: src.Model}
	if src.Dataset.ProbModel != gen.ProbWC || s.model.NumTopics() != 1 {
		s.model = topic.NewWeightedCascade(src.Dataset.Graph)
	}
	s.eng = core.NewEngine(s.ds.Graph, s.model, core.EngineOptions{
		Workers: params.SampleWorkers,
		Shards:  params.Shards,
	})
	scaleSrcCache.m[key] = s
	return s, nil
}

// scalabilityProblem builds the Figure 5 configuration: WC probabilities,
// uniform budgets, cpe = 1, α = 0.2 linear incentives with the out-degree
// proxy — the paper's fully-competitive stress test. The model is shared
// across the sweep's points so that every h/budget variation solves on
// the same Engine.
func scalabilityProblem(ds gen.Dataset, model *topic.Model, h int, budget float64, alpha float64) *core.Problem {
	ads := topic.CompetingAds(h, 1, xrand.New(7))
	topic.UniformBudgets(ads, budget, 1)
	sigma := incentive.SingletonsOutDegree(ds.Graph)
	incs := make([]*incentive.Table, h)
	tab := incentive.Build(incentive.Linear, alpha, sigma)
	for i := range incs {
		incs[i] = tab
	}
	return &core.Problem{Graph: ds.Graph, Model: model, Ads: ads, Incentives: incs}
}

// ScalabilityAdvertisers reproduces Figure 5(a,b) and Table 3: running
// time and memory of TI-CARM and TI-CSRM (window 5000) as h grows, with a
// fixed per-ad budget. ε defaults to 0.3 (the paper's scalability
// setting).
func ScalabilityAdvertisers(ctx context.Context, dataset string, hs []int, budget float64, params Params,
	progress func(string)) ([]ScalePoint, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.3
	}
	if params.Window == 0 {
		params.Window = 5000
	}
	if progress == nil {
		progress = func(string) {}
	}
	src, err := scalabilitySource(dataset, params)
	if err != nil {
		return nil, err
	}
	ds, model, eng := src.ds, src.model, src.eng
	scaledBudget := budget / float64(params.Scale)
	var out []ScalePoint
	for _, h := range hs {
		p := scalabilityProblem(ds, model, h, scaledBudget, 0.2)
		for _, alg := range []Algorithm{AlgTICARM, AlgTICSRM} {
			progress(fmt.Sprintf("%s h=%d %v", dataset, h, alg))
			run := params
			res, err := RunAlgorithm(ctx, eng, p, alg, run, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, ScalePoint{
				Dataset: dataset, Algorithm: alg, H: h, Budget: scaledBudget,
				Revenue: res.Revenue, SeedCost: res.SeedCost, Duration: res.Duration, MemBytes: res.MemBytes,
				SamplerBytes: res.SamplerBytes, Seeds: res.Seeds,
				RRSets: res.RRSets, Workers: res.SampleWorkers,
				Shards: res.Shards,
			})
		}
		runtime.GC()
	}
	return out, nil
}

// ScalabilityBudget reproduces Figure 5(c,d): running time as the per-ad
// budget grows with h fixed at 5.
func ScalabilityBudget(ctx context.Context, dataset string, budgets []float64, params Params,
	progress func(string)) ([]ScalePoint, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.3
	}
	if params.Window == 0 {
		params.Window = 5000
	}
	if progress == nil {
		progress = func(string) {}
	}
	src, err := scalabilitySource(dataset, params)
	if err != nil {
		return nil, err
	}
	ds, model, eng := src.ds, src.model, src.eng
	const h = 5
	var out []ScalePoint
	for _, budget := range budgets {
		scaled := budget / float64(params.Scale)
		p := scalabilityProblem(ds, model, h, scaled, 0.2)
		for _, alg := range []Algorithm{AlgTICARM, AlgTICSRM} {
			progress(fmt.Sprintf("%s budget=%.0f %v", dataset, budget, alg))
			res, err := RunAlgorithm(ctx, eng, p, alg, params, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, ScalePoint{
				Dataset: dataset, Algorithm: alg, H: h, Budget: scaled,
				Revenue: res.Revenue, SeedCost: res.SeedCost, Duration: res.Duration, MemBytes: res.MemBytes,
				SamplerBytes: res.SamplerBytes, Seeds: res.Seeds,
				RRSets: res.RRSets, Workers: res.SampleWorkers,
				Shards: res.Shards,
			})
		}
		runtime.GC()
	}
	return out, nil
}

// ShardScaling measures RR-sampling behavior as the engine's shard
// count grows, holding everything else (dataset, problem, seed, ε,
// window) fixed: one TI-CSRM solve per shard count, each on its own
// warm engine. Every point runs the same shard-group path, so the sweep
// isolates the cost and parallel benefit of sharding rather than
// comparing different code paths.
func ShardScaling(ctx context.Context, dataset string, budget float64, shardCounts []int, params Params,
	progress func(string)) ([]ScalePoint, error) {
	params = params.withDefaults()
	if params.Epsilon == 0 {
		params.Epsilon = 0.3
	}
	if params.Window == 0 {
		params.Window = 5000
	}
	if progress == nil {
		progress = func(string) {}
	}
	const h = 5
	scaled := budget / float64(params.Scale)
	var out []ScalePoint
	for _, shards := range shardCounts {
		run := params
		run.Shards = shards
		src, err := scalabilitySource(dataset, run)
		if err != nil {
			return nil, err
		}
		progress(fmt.Sprintf("%s shards=%d %v", dataset, shards, AlgTICSRM))
		p := scalabilityProblem(src.ds, src.model, h, scaled, 0.2)
		res, err := RunAlgorithm(ctx, src.eng, p, AlgTICSRM, run, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Dataset: dataset, Algorithm: AlgTICSRM, H: h, Budget: scaled,
			Revenue: res.Revenue, SeedCost: res.SeedCost, Duration: res.Duration, MemBytes: res.MemBytes,
			SamplerBytes: res.SamplerBytes, Seeds: res.Seeds,
			RRSets: res.RRSets, Workers: res.SampleWorkers,
			Shards: res.Shards,
		})
		runtime.GC()
	}
	return out, nil
}

// ShardScalingTable renders the shard sweep: sampling throughput and
// memory per shard count.
func ShardScalingTable(points []ScalePoint) *Table {
	t := &Table{
		Title: "Sharded RR sampling: throughput vs shard count",
		Header: []string{"dataset", "shards", "workers", "seconds", "rr_sets",
			"rr_sets_per_sec", "rr_mem_mb"},
	}
	for _, pt := range points {
		t.Append(pt.Dataset, pt.Shards, pt.Workers,
			fmt.Sprintf("%.3f", pt.Duration.Seconds()), pt.RRSets,
			fmt.Sprintf("%.0f", pt.RRThroughput()),
			fmt.Sprintf("%.1f", float64(pt.MemBytes)/(1<<20)))
	}
	return t
}

// RuntimeTable renders Figure 5 series (runtime vs the swept variable).
func RuntimeTable(points []ScalePoint, sweep string) *Table {
	t := &Table{
		Title: "Figure 5: running time (" + sweep + " sweep)",
		Header: []string{"dataset", "algorithm", "h", "budget", "seconds", "seeds",
			"workers", "rrsets/s"},
	}
	for _, pt := range points {
		t.Append(pt.Dataset, pt.Algorithm.String(), pt.H, pt.Budget,
			pt.Duration.Seconds(), pt.Seeds, pt.Workers, pt.RRThroughput())
	}
	return t
}

// MemoryTable renders Table 3 (RR-set memory in MB) from scalability
// points. The paper's single memory column is split into the RR-set
// stores (rrsets-mb), the shared sampling pool's worker scratch
// (sampler-mb, O(workers·n) per run regardless of h), and their total —
// the pre-pool engine neither bounded nor counted the scratch.
func MemoryTable(points []ScalePoint) *Table {
	t := &Table{
		Title: "Table 3: RR-set memory usage (MB)",
		Header: []string{"dataset", "algorithm", "h", "rrsets-mb", "sampler-mb",
			"total-mb", "seeds"},
	}
	for _, pt := range points {
		t.Append(pt.Dataset, pt.Algorithm.String(), pt.H,
			float64(pt.MemBytes)/(1<<20),
			float64(pt.SamplerBytes)/(1<<20),
			float64(pt.MemBytes+pt.SamplerBytes)/(1<<20), pt.Seeds)
	}
	return t
}
