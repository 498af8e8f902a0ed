// Package eval is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation (Section 5) on the synthetic dataset
// presets, with a common independent Monte-Carlo evaluator so that all
// algorithms are scored identically.
//
// The per-experiment index is in README.md's Benchmarks section; each
// driver in this package corresponds to one experiment ID (table1,
// table2, table3, fig1, fig2, fig3, fig4, fig5a–d, frontier and the
// ablations).
package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// Algorithm identifies one of the compared allocation algorithms.
type Algorithm int

const (
	// AlgTICSRM is the scalable cost-sensitive algorithm (the paper's
	// winner).
	AlgTICSRM Algorithm = iota
	// AlgTICARM is the scalable cost-agnostic algorithm.
	AlgTICARM
	// AlgPageRankGR is the PageRank + greedy-assignment baseline.
	AlgPageRankGR
	// AlgPageRankRR is the PageRank + round-robin baseline.
	AlgPageRankRR
	// AlgHighDegree is an extra ablation baseline: out-degree candidates
	// with greedy assignment.
	AlgHighDegree
	// AlgRandom is an extra ablation baseline: random candidates with
	// round-robin assignment.
	AlgRandom
	// AlgHCCSRM is the one-pass cost-sensitive competitor (Han & Cui et
	// al., arXiv:2107.04997) running as core.ModeOnePassCostSensitive.
	AlgHCCSRM
	// AlgHCCARM is the one-pass cost-agnostic competitor.
	AlgHCCARM
)

// algSpec bridges an eval Algorithm onto the core registry: which engine
// mode it runs, an optional display override (the ablation baselines
// reuse the PageRank modes under their own labels), and how its PRScores
// are produced when the mode needs them. privateScores algorithms always
// compute their own scores, ignoring any shared ones from the caller.
type algSpec struct {
	mode          core.Mode
	display       string
	scores        func(p *core.Problem, seed uint64) [][]float64
	privateScores bool
}

var algSpecs = map[Algorithm]algSpec{
	AlgTICSRM:     {mode: core.ModeCostSensitive},
	AlgTICARM:     {mode: core.ModeCostAgnostic},
	AlgHCCSRM:     {mode: core.ModeOnePassCostSensitive},
	AlgHCCARM:     {mode: core.ModeOnePassCostAgnostic},
	AlgPageRankGR: {mode: core.ModePRGreedy, scores: pagerankScores},
	AlgPageRankRR: {mode: core.ModePRRoundRobin, scores: pagerankScores},
	AlgHighDegree: {mode: core.ModePRGreedy, display: "HighDegree-GR", privateScores: true,
		scores: func(p *core.Problem, _ uint64) [][]float64 { return baseline.HighDegreeScores(p) }},
	AlgRandom: {mode: core.ModePRRoundRobin, display: "Random-RR", privateScores: true,
		scores: func(p *core.Problem, seed uint64) [][]float64 { return baseline.RandomScores(p, seed) }},
}

func pagerankScores(p *core.Problem, _ uint64) [][]float64 {
	return baseline.ScoresForProblem(p, baseline.PageRankOptions{})
}

// ModeAlgorithm maps a registered core mode back to the eval Algorithm
// that runs it under its canonical label — the Frontier driver's bridge
// from core.Algorithms() to RunAlgorithm. The ablation-only baselines
// (AlgHighDegree, AlgRandom) share modes with the PageRank algorithms
// but never claim them here.
func ModeAlgorithm(m core.Mode) (Algorithm, bool) {
	for alg, spec := range algSpecs {
		if spec.mode == m && spec.display == "" {
			return alg, true
		}
	}
	return 0, false
}

func (a Algorithm) String() string {
	spec, ok := algSpecs[a]
	if !ok {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	if spec.display != "" {
		return spec.display
	}
	return spec.mode.String()
}

// PaperAlgorithms is the set compared throughout the paper's Figures 2–4.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{AlgPageRankGR, AlgPageRankRR, AlgTICARM, AlgTICSRM}
}

// Params carries the harness-wide knobs. Zero values select defaults
// scaled for a development machine; the paper's settings are noted inline.
type Params struct {
	// Scale shrinks the dataset presets (default ScaleSmall; the paper is
	// ScaleFull).
	Scale gen.Scale
	// Seed drives all randomness.
	Seed uint64
	// H is the number of advertisers (paper default: 10 for quality runs).
	H int
	// Epsilon is the RR estimation accuracy (paper: 0.1 quality, 0.3
	// scalability). Drivers default it per experiment.
	Epsilon float64
	// Window is TI-CSRM's window size (paper: full for quality on small
	// datasets, 5000 for scalability).
	Window int
	// MaxThetaPerAd caps RR samples per ad (memory guard; 0 = default).
	MaxThetaPerAd int
	// MCEvalRuns is the number of Monte-Carlo cascades for the
	// independent evaluation of allocations (default 2000).
	MCEvalRuns int
	// SingletonRuns is the number of Monte-Carlo runs for singleton
	// spreads on the quality datasets (paper: 5000; default 500).
	SingletonRuns int
	// Workers bounds Monte-Carlo simulation parallelism (default
	// NumCPU). It changes speed only: every MC run draws from its own
	// seed.
	Workers int
	// SampleWorkers is the engine's RR-sampling worker count — the size
	// of the shared scratch pool each run allocates (0 reads as 1). It
	// changes no seed-pinned output, only how fast sampling runs.
	SampleWorkers int
	// AlphaPoints is the number of α grid points per incentive model
	// (default 5, as in Figures 2–3).
	AlphaPoints int
}

func (p Params) withDefaults() Params {
	if p.Scale == 0 {
		p.Scale = gen.ScaleSmall
	}
	if p.H == 0 {
		p.H = 10
	}
	if p.MCEvalRuns == 0 {
		p.MCEvalRuns = 2000
	}
	if p.SingletonRuns == 0 {
		p.SingletonRuns = 500
	}
	if p.Workers == 0 {
		p.Workers = runtime.NumCPU()
	}
	if p.AlphaPoints == 0 {
		p.AlphaPoints = 5
	}
	return p
}

// Workbench holds everything that stays fixed across an experiment sweep
// for one dataset: the graph, the propagation model, the ads (with budgets
// and CPEs), the per-ad singleton spreads that incentive tables are built
// from, and one long-lived solver Engine — every run in the sweep solves
// warm on it instead of rebuilding scratch pools and edge probabilities
// per call.
type Workbench struct {
	Params  Params
	Dataset gen.Dataset
	Model   *topic.Model
	Ads     []topic.Ad
	// Singletons[i][u] is σ_i({u}) for ad i (aliased across ads that share
	// a topic distribution).
	Singletons [][]float64

	eng *core.Engine
}

// Engine returns the workbench's long-lived solver Engine (one per
// dataset/model, shared by every run of the sweep).
func (w *Workbench) Engine() *core.Engine { return w.eng }

// workbenchKey identifies the construction-relevant parameters of a
// Workbench: two NewWorkbench calls agreeing on these fields get the
// same (immutable, concurrency-safe) workbench back.
type workbenchKey struct {
	dataset       string
	scale         gen.Scale
	seed          uint64
	h             int
	singletonRuns int
	sampleWorkers int
}

var workbenchCache = struct {
	sync.Mutex
	m map[workbenchKey]*Workbench
}{m: map[workbenchKey]*Workbench{}}

// ResetWorkbenchCache drops every cached workbench (and the scalability
// sweep cache), releasing the graphs, models and engines they hold.
func ResetWorkbenchCache() {
	workbenchCache.Lock()
	workbenchCache.m = map[workbenchKey]*Workbench{}
	workbenchCache.Unlock()
	scaleSrcCache.Lock()
	scaleSrcCache.m = map[workbenchKey]*scaleSrc{}
	scaleSrcCache.Unlock()
}

// NewWorkbench builds the workbench for a dataset name resolved through
// dataset.Default — a synthetic preset at the requested scale or a
// registered snapshot/edge-list file. Budgets follow Table 2, divided by
// the scale factor so that budget-to-graph-size ratios match the
// paper's. Workbenches are cached per construction parameters, so every
// experiment of a sweep (and every sweep of an `-experiment=all` run)
// shares one graph, model, singleton table and warm Engine per dataset
// instead of regenerating them; the cache is keyed on Seed, so
// determinism is unaffected. Workbenches are read-only after
// construction and safe for concurrent use.
func NewWorkbench(name string, params Params) (*Workbench, error) {
	params = params.withDefaults()
	key := workbenchKey{
		dataset:       name,
		scale:         params.Scale,
		seed:          params.Seed,
		h:             params.H,
		singletonRuns: params.SingletonRuns,
		sampleWorkers: params.SampleWorkers,
	}
	workbenchCache.Lock()
	defer workbenchCache.Unlock()
	if w, ok := workbenchCache.m[key]; ok {
		return w, nil
	}
	w, err := buildWorkbench(name, params)
	if err != nil {
		return nil, err
	}
	workbenchCache.m[key] = w
	return w, nil
}

func buildWorkbench(name string, params Params) (*Workbench, error) {
	rng := xrand.New(params.Seed)
	src, err := dataset.Default.Open(name, params.Scale, rng)
	if err != nil {
		return nil, err
	}
	ds := src.Dataset
	w := &Workbench{Params: params, Dataset: ds, Model: src.Model}
	w.eng = core.NewEngine(ds.Graph, w.Model, core.EngineOptions{Workers: params.SampleWorkers})
	l := w.Model.NumTopics()

	// Budget and singleton protocols dispatch on the dataset's own name,
	// so a snapshot of a preset behaves like the preset no matter what
	// registry key it was loaded under.
	dsName := ds.Name
	if len(src.Ads) >= params.H {
		// A snapshot with a frozen ad roster covering the requested h:
		// reuse it verbatim (IDs are positional, so a prefix stays valid)
		// instead of re-drawing ads and budgets.
		w.Ads = append([]topic.Ad(nil), src.Ads[:params.H]...)
	} else {
		w.Ads = topic.CompetingAds(params.H, l, rng.Split())
		// Budgets scale with graph size so budget-to-graph ratios match
		// the paper's. Synthetic presets divide by the Scale parameter;
		// file-backed sources ignore Scale (a snapshot is one frozen
		// size), so derive the effective divisor from the graph itself
		// via the Table 1 full-scale node count when known.
		scaleDiv := float64(params.Scale)
		if src.FromSnapshot {
			scaleDiv = 1
			if ds.PaperNodes > 0 && ds.Graph.NumNodes() > 0 {
				if r := float64(ds.PaperNodes) / float64(ds.Graph.NumNodes()); r > 1 {
					scaleDiv = r
				}
			}
		}
		budgetRng := rng.Split()
		switch dsName {
		case "flixster":
			bp := topic.FlixsterBudgets()
			bp.MinBudget /= scaleDiv
			bp.MaxBudget /= scaleDiv
			topic.AssignBudgets(w.Ads, bp, budgetRng)
		case "epinions":
			bp := topic.EpinionsBudgets()
			bp.MinBudget /= scaleDiv
			bp.MaxBudget /= scaleDiv
			topic.AssignBudgets(w.Ads, bp, budgetRng)
		case "dblp":
			topic.UniformBudgets(w.Ads, 10_000/scaleDiv, 1) // paper's Fig. 5(a) setting
		case "livejournal":
			topic.UniformBudgets(w.Ads, 100_000/scaleDiv, 1) // paper's Fig. 5(b) setting
		default:
			// File-backed datasets without a frozen roster: the Fig. 5(a)
			// uniform setting (the floor in Problem() still guarantees
			// every ad affords a seed).
			topic.UniformBudgets(w.Ads, 10_000/scaleDiv, 1)
		}
	}

	// Singleton spreads: Monte-Carlo on the quality datasets, out-degree
	// proxy on the scalability datasets (and on file-backed entries,
	// whose size is unknown) — the paper's protocol.
	w.Singletons = make([][]float64, params.H)
	if dsName == "flixster" || dsName == "epinions" {
		mcRng := rng.Split()
		cache := map[string][]float64{}
		for i, ad := range w.Ads {
			key := fmt.Sprintf("%v", ad.Gamma)
			if got, ok := cache[key]; ok {
				w.Singletons[i] = got
				continue
			}
			probs := w.Model.EdgeProbs(ad.Gamma)
			s := cascade.SingletonSpreads(ds.Graph, probs, params.SingletonRuns, params.Workers, mcRng.Split().Uint64())
			cache[key] = s
			w.Singletons[i] = s
		}
	} else {
		shared := incentive.SingletonsOutDegree(ds.Graph)
		for i := range w.Singletons {
			w.Singletons[i] = shared
		}
	}
	return w, nil
}

// Problem materializes an RM instance with the given incentive model and
// scale α (the paper's values, used unscaled — the incentive formulas are
// functions of singleton spreads, which do not shrink with the scale
// factor). The instance is built against the engine's current graph
// generation, so problems stay solvable on a workbench whose graph has
// been mutated through Engine().ApplyDelta (singleton spreads and
// budgets are not re-derived — they describe the initial graph).
//
// Budgets are the workbench's scaled Table 2 draws, floored at 1.5 times
// the cheapest possible first-seed payment min_u ρ_i({u}). This enforces
// the paper's stated protocol — "budgets and CPEs were chosen in such a
// way that ... no ad is assigned an empty seed set" and the Section 2
// assumption that every advertiser can afford at least one seed — which
// the plain scaled draws can violate at reduced scale for the expensive
// incentive settings (e.g. constant incentives with large α).
func (w *Workbench) Problem(kind incentive.Kind, alpha float64) *core.Problem {
	incs := make([]*incentive.Table, len(w.Ads))
	// Ads sharing a singleton-spread slice (same topic distribution) share
	// one incentive table; key the cache by the slice's backing array.
	cache := map[*float64]*incentive.Table{}
	for i := range w.Ads {
		key := &w.Singletons[i][0]
		if tab, ok := cache[key]; ok {
			incs[i] = tab
			continue
		}
		tab := incentive.Build(kind, alpha, w.Singletons[i])
		cache[key] = tab
		incs[i] = tab
	}
	ads := append([]topic.Ad(nil), w.Ads...)
	for i := range ads {
		// Cheapest possible first seed: min over nodes of the singleton
		// payment ρ_i({u}) = c_i(u) + cpe_i·σ_i({u}).
		minRho := math.Inf(1)
		for u, s := range w.Singletons[i] {
			rho := incs[i].Cost(int32(u)) + ads[i].CPE*s
			if rho < minRho {
				minRho = rho
			}
		}
		if floor := 1.5 * minRho; ads[i].Budget < floor {
			ads[i].Budget = floor
		}
	}
	g, m := w.eng.Current()
	return &core.Problem{Graph: g, Model: m, Ads: ads, Incentives: incs}
}

// RunResult is the outcome of one (algorithm, problem) run, scored by the
// independent evaluator.
type RunResult struct {
	Dataset   string
	Algorithm Algorithm
	Kind      incentive.Kind
	Alpha     float64
	H         int
	Budget    float64 // only for uniform-budget sweeps
	Window    int

	Revenue       float64 // MC-evaluated π(S⃗)
	SeedCost      float64 // Σ c_i(S_i)
	Seeds         int
	Duration      time.Duration
	MemBytes      int64 // RR-set store footprint (universes and views)
	SamplerBytes  int64 // shared sampling pool scratch, O(workers·n)
	Theta         []int
	RRSets        int64 // total RR sets sampled across ads
	SampleWorkers int   // RR-sampling scratch slots for the run
}

// RRThroughput returns the sampling-dominated runs' headline rate: RR sets
// generated per second of total algorithm runtime.
func (r RunResult) RRThroughput() float64 { return rrThroughput(r.RRSets, r.Duration) }

// rrThroughput guards the sets-per-second division shared by RunResult
// and ScalePoint.
func rrThroughput(sets int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(sets) / d.Seconds()
}

// SolveAlgorithm runs one algorithm's solve (without the Monte-Carlo
// evaluation) through the given long-lived Engine, which must be
// non-nil. Dispatch is registry-driven: the algorithm's spec
// names a core mode, the mode's capability flags decide whether window
// search applies and whether PRScores must be supplied. PageRank scores
// may be shared across calls via prScores (nil computes internally);
// algorithms with private scores (HighDegree, Random) always compute
// their own.
func SolveAlgorithm(ctx context.Context, eng *core.Engine, p *core.Problem, alg Algorithm,
	params Params, prScores [][]float64) (*core.Allocation, *core.Stats, error) {
	params = params.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	spec, ok := algSpecs[alg]
	if !ok {
		return nil, nil, fmt.Errorf("eval: unknown algorithm %v", alg)
	}
	info, ok := core.ModeInfo(spec.mode)
	if !ok {
		return nil, nil, fmt.Errorf("eval: algorithm %v names unregistered mode %d", alg, int(spec.mode))
	}
	opt := core.Options{
		Mode:          spec.mode,
		Epsilon:       params.Epsilon,
		Window:        params.Window,
		Seed:          params.Seed,
		MaxThetaPerAd: params.MaxThetaPerAd,
	}
	if !info.SupportsWindow {
		opt.Window = 0
	}
	if info.NeedsPRScores {
		sc := prScores
		if sc == nil || spec.privateScores {
			sc = spec.scores(p, params.Seed)
		}
		opt.PRScores = sc
	}
	alloc, stats, err := eng.Solve(ctx, p, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: %v failed: %w", alg, err)
	}
	return alloc, stats, nil
}

// RunAlgorithm executes one algorithm on a problem through the given
// long-lived Engine, which must be non-nil, evaluates the allocation
// with fresh Monte-Carlo, and returns the result row. The context
// cancels both the solve and the evaluation.
// PageRank scores are computed on demand and may be shared across calls
// via prScores (pass nil to compute internally).
func RunAlgorithm(ctx context.Context, eng *core.Engine, p *core.Problem, alg Algorithm,
	params Params, prScores [][]float64) (RunResult, error) {
	params = params.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	alloc, stats, err := SolveAlgorithm(ctx, eng, p, alg, params, prScores)
	if err != nil {
		return RunResult{}, err
	}
	ev, err := eng.Evaluate(ctx, p, alloc, params.MCEvalRuns, params.Workers, params.Seed^0xabcdef)
	if err != nil {
		return RunResult{}, fmt.Errorf("eval: %v evaluation failed: %w", alg, err)
	}
	return RunResult{
		Algorithm:     alg,
		Revenue:       ev.TotalRevenue(),
		SeedCost:      ev.TotalSeedCost(),
		Seeds:         alloc.NumSeeds(),
		Duration:      stats.Duration,
		MemBytes:      stats.RRMemoryBytes,
		SamplerBytes:  stats.SamplerMemoryBytes,
		Theta:         stats.Theta,
		RRSets:        stats.TotalRRSets,
		SampleWorkers: stats.SampleWorkers,
	}, nil
}

// AlphaGrid returns the paper's α sweep for a dataset and incentive model
// (the x axes of Figures 2–3), with the requested number of points.
func AlphaGrid(dataset string, kind incentive.Kind, points int) []float64 {
	var lo, hi float64
	switch kind {
	case incentive.Linear:
		lo, hi = 0.1, 0.5
	case incentive.Constant:
		if dataset == "epinions" {
			lo, hi = 6, 10
		} else {
			lo, hi = 0.1, 0.5
		}
	case incentive.Sublinear:
		if dataset == "epinions" {
			lo, hi = 11, 15
		} else {
			lo, hi = 1, 5
		}
	case incentive.Superlinear:
		if dataset == "epinions" {
			lo, hi = 0.0006, 0.001
		} else {
			lo, hi = 0.0001, 0.0005
		}
	}
	if points == 1 {
		return []float64{hi}
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(points-1)
	}
	return out
}
