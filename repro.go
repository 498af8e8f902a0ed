// Package repro is a from-scratch Go reproduction of "Revenue Maximization
// in Incentivized Social Advertising" (Aslay, Bonchi, Lakshmanan, Lu —
// VLDB 2017, arXiv:1612.00531).
//
// A social platform (the host) runs advertising campaigns for h
// advertisers. It selects disjoint seed sets of influential users per ad,
// pays each seed an incentive proportional to her topic-specific influence,
// and earns a fixed cost-per-engagement for every user the resulting
// cascades reach — all within each advertiser's budget. The host's
// revenue-maximization problem is monotone submodular maximization under a
// partition matroid plus per-advertiser submodular knapsacks.
//
// This facade re-exports the library's public surface:
//
//   - Problem construction: dataset presets (gen), topic-aware propagation
//     models (topic), incentive models (incentive);
//   - Algorithms: the reference CA-GREEDY/CS-GREEDY, the scalable TI-CARM
//     and TI-CSRM, the one-pass HC-CARM/HC-CSRM competitors (Han & Cui et
//     al.), and the PageRank baselines — all enumerated by the Algorithms
//     registry and selected by canonical name via ParseMode;
//   - Evaluation: an independent Monte-Carlo scorer plus the experiment
//     drivers that regenerate every table and figure of the paper.
//
// The substrate is the long-lived Engine: construct one per
// (graph, topic model) with NewEngine — or take the Workbench's — and
// issue any number of concurrent, cancellable Solve/Evaluate sessions on
// it. Quickstart:
//
//	w, _ := repro.NewWorkbench("flixster", repro.Params{Scale: repro.ScaleTiny, H: 4})
//	eng := w.Engine() // construct once ...
//	p := w.Problem(repro.Linear, 0.2)
//	alloc, stats, _ := eng.Solve(ctx, p, repro.Options{Mode: repro.ModeCostSensitive, Epsilon: 0.3})
//	ev, _ := eng.Evaluate(ctx, p, alloc, 2000, 2, 1) // ... solve and score many times
//	fmt.Println("revenue:", ev.TotalRevenue(), "in", stats.Duration)
package repro

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incentive"
	"repro/internal/topic"
)

// Core problem and algorithm types.
type (
	// Problem is an instance of the revenue-maximization problem.
	Problem = core.Problem
	// Allocation is a feasible seeds-to-ads assignment with accounting.
	Allocation = core.Allocation
	// Options configures one solve session.
	Options = core.Options
	// Stats reports engine work (θ per ad, memory, duration).
	Stats = core.Stats
	// Evaluation is an independent Monte-Carlo score of an allocation.
	Evaluation = core.Evaluation
	// SpreadOracle abstracts σ_i(S) access for the reference algorithms.
	SpreadOracle = core.SpreadOracle
	// Engine is the long-lived, concurrent-safe solver session factory:
	// construct once per (graph, topic model), then Solve/Evaluate many
	// times, concurrently if desired.
	Engine = core.Engine
	// EngineOptions fixes an Engine's sampling configuration.
	EngineOptions = core.EngineOptions
	// ProgressEvent is one streaming progress notification from a solve.
	ProgressEvent = core.ProgressEvent
	// ProgressKind labels a ProgressEvent.
	ProgressKind = core.ProgressKind
)

// Dynamic-graph types: mutate the graph between sessions with
// Engine.ApplyDelta — each batch compiles into a fresh immutable graph
// at the next Generation, in-flight sessions finish on the snapshot
// they started with, and cached RR universes are repaired in place.
type (
	// GraphDelta is one batched graph mutation (arc inserts, removes,
	// per-topic probability overrides) applied atomically.
	GraphDelta = graph.Delta
	// GraphEdge names one directed arc in a GraphDelta.
	GraphEdge = graph.Edge
	// ProbUpdate overrides one arc's probability on one topic.
	ProbUpdate = graph.ProbUpdate
	// DeltaResult reports what an Engine.ApplyDelta swap did: the new
	// generation, touched nodes, and RR-set invalidation/repair counts.
	DeltaResult = core.DeltaResult
)

// Sentinel errors of the solve path; dispatch with errors.Is.
var (
	// ErrInvalidProblem marks structurally invalid input.
	ErrInvalidProblem = core.ErrInvalidProblem
	// ErrInfeasible marks a solve whose allocation fails its constraints.
	ErrInfeasible = core.ErrInfeasible
	// ErrCanceled marks a solve aborted by its context; the chain also
	// matches the originating context error.
	ErrCanceled = core.ErrCanceled
	// ErrBadDelta marks a structurally invalid GraphDelta (self-loop,
	// duplicate insert, missing removal target, out-of-range node/topic,
	// probability outside [0, 1]); the engine is left untouched.
	ErrBadDelta = graph.ErrBadDelta
	// ErrSwapInProgress marks an ApplyDelta rejected because another
	// swap was running; swaps never queue — retry after it completes.
	ErrSwapInProgress = core.ErrSwapInProgress
)

// Progress event kinds.
const (
	ProgressSampleGrowth = core.ProgressSampleGrowth
	ProgressSeedAssigned = core.ProgressSeedAssigned
)

// NewEngine builds a long-lived Engine for the graph and topic model.
func NewEngine(g *Graph, model *TopicModel, opts EngineOptions) *Engine {
	return core.NewEngine(g, model, opts)
}

// Substrate types.
type (
	// Graph is the immutable CSR social graph.
	Graph = graph.Graph
	// GraphBuilder accumulates arcs for a Graph.
	GraphBuilder = graph.Builder
	// TopicModel holds per-topic arc probabilities (TIC).
	TopicModel = topic.Model
	// Ad describes one advertiser's campaign.
	Ad = topic.Ad
	// Distribution is a distribution over latent topics.
	Distribution = topic.Distribution
	// IncentiveTable holds per-node seed incentives for one ad.
	IncentiveTable = incentive.Table
	// IncentiveKind selects one of the paper's four incentive models.
	IncentiveKind = incentive.Kind
	// Dataset is a generated dataset preset with metadata.
	Dataset = gen.Dataset
	// Scale shrinks dataset presets for development machines.
	Scale = gen.Scale
)

// Harness types.
type (
	// Params carries experiment-harness knobs.
	Params = eval.Params
	// Workbench holds the fixed part of an experiment sweep.
	Workbench = eval.Workbench
	// Algorithm identifies a compared algorithm.
	Algorithm = eval.Algorithm
	// RunResult is one evaluated algorithm run.
	RunResult = eval.RunResult
	// Table is a rendered experiment artifact.
	Table = eval.Table
)

// Incentive model kinds (Section 5).
const (
	Linear      = incentive.Linear
	Constant    = incentive.Constant
	Sublinear   = incentive.Sublinear
	Superlinear = incentive.Superlinear
)

// Dataset scales.
const (
	ScaleTiny   = gen.ScaleTiny
	ScaleSmall  = gen.ScaleSmall
	ScaleMedium = gen.ScaleMedium
	ScaleFull   = gen.ScaleFull
)

// Engine modes.
const (
	ModeCostAgnostic         = core.ModeCostAgnostic
	ModeCostSensitive        = core.ModeCostSensitive
	ModePRGreedy             = core.ModePRGreedy
	ModePRRoundRobin         = core.ModePRRoundRobin
	ModeOnePassCostAgnostic  = core.ModeOnePassCostAgnostic
	ModeOnePassCostSensitive = core.ModeOnePassCostSensitive
)

// Harness algorithms.
const (
	AlgTICSRM     = eval.AlgTICSRM
	AlgTICARM     = eval.AlgTICARM
	AlgPageRankGR = eval.AlgPageRankGR
	AlgPageRankRR = eval.AlgPageRankRR
	AlgHighDegree = eval.AlgHighDegree
	AlgRandom     = eval.AlgRandom
	AlgHCCSRM     = eval.AlgHCCSRM
	AlgHCCARM     = eval.AlgHCCARM
)

// The algorithm registry: canonical names, capability flags, and parsing
// for every engine mode. CLIs and services should select algorithms
// through ParseMode and enumerate them with Algorithms, never by
// switching on name strings.
type (
	// AlgorithmInfo is one registry entry (canonical name, Mode, paper,
	// guarantee, capability flags).
	AlgorithmInfo = core.AlgorithmInfo
	// Mode selects an engine algorithm in Options.Mode.
	Mode = core.Mode
)

// DefaultModeName is the canonical name of the default algorithm
// (TI-CSRM, the paper's winner).
const DefaultModeName = core.DefaultModeName

// ErrUnknownMode is wrapped by every failed ParseMode; the concrete
// *core.UnknownModeError enumerates the registered names.
var ErrUnknownMode = core.ErrUnknownMode

// Algorithms returns every registered engine algorithm in canonical
// order.
func Algorithms() []AlgorithmInfo { return core.Algorithms() }

// ParseMode resolves a canonical or display algorithm name
// (case-insensitively) to its engine Mode.
func ParseMode(name string) (Mode, error) { return core.ParseMode(name) }

// ModeInfo returns the registry entry for a Mode, reporting whether the
// mode is registered.
func ModeInfo(m Mode) (AlgorithmInfo, bool) { return core.ModeInfo(m) }

// PageRankScores computes the influence-weighted PageRank candidate
// rankings that the modes flagged AlgorithmInfo.NeedsPRScores require in
// Options.PRScores (one per-node score slice per ad).
func PageRankScores(p *Problem) [][]float64 {
	return baseline.ScoresForProblem(p, baseline.PageRankOptions{})
}

// NewWorkbench builds the fixed part of an experiment sweep for a dataset
// preset ("flixster", "epinions", "dblp", "livejournal").
func NewWorkbench(dataset string, params Params) (*Workbench, error) {
	return eval.NewWorkbench(dataset, params)
}

// CAGreedy runs the reference cost-agnostic greedy (Algorithm 1) against a
// spread oracle; intended for small instances.
func CAGreedy(p *Problem, oracle SpreadOracle) (*Allocation, error) {
	return core.CAGreedy(p, oracle)
}

// CSGreedy runs the reference cost-sensitive greedy against a spread
// oracle; intended for small instances.
func CSGreedy(p *Problem, oracle SpreadOracle) (*Allocation, error) {
	return core.CSGreedy(p, oracle)
}

// NewMCOracle builds a Monte-Carlo spread oracle for the reference
// algorithms.
func NewMCOracle(p *Problem, runs int, seed uint64) SpreadOracle {
	return core.NewMCOracle(p, runs, seed)
}

// EvaluateCompetitive scores an allocation under hard-competition
// propagation: every user engages with at most one ad per window (the
// paper's future-work item iii).
func EvaluateCompetitive(p *Problem, a *Allocation, runs, workers int, seed uint64) *Evaluation {
	return core.EvaluateCompetitive(p, a, runs, workers, seed)
}

// Fig1Instance returns the paper's Figure 1 tightness gadget.
func Fig1Instance() *Problem { return core.Fig1Instance() }

// SaveAllocation writes an allocation to a JSON file.
func SaveAllocation(path string, a *Allocation) error { return core.SaveAllocation(path, a) }

// LoadAllocation reads an allocation from a JSON file.
func LoadAllocation(path string) (*Allocation, error) { return core.LoadAllocation(path) }

// Dataset layer: the versioned binary snapshot format and the named
// dataset registry shared by the CLIs and the experiment harness.
type (
	// Snapshot bundles a graph, its propagation model, metadata and an
	// optional frozen ad roster for binary persistence.
	Snapshot = dataset.Snapshot
	// DatasetSource is a resolved dataset (graph + model), ready for an
	// Engine.
	DatasetSource = dataset.Source
	// DatasetRegistry maps dataset names to synthetic presets and
	// file-backed snapshot/edge-list entries.
	DatasetRegistry = dataset.Registry
)

// ErrBadSnapshot is wrapped by every snapshot decoding failure (wrong
// magic, truncation, checksum mismatch); dispatch with errors.Is.
var ErrBadSnapshot = dataset.ErrBadSnapshot

// ErrBadGraphFile is wrapped by every text edge-list decoding failure
// (malformed lines, out-of-range ids, corrupt gzip); dispatch with
// errors.Is.
var ErrBadGraphFile = dataset.ErrBadGraphFile

// ErrUnknownDataset is wrapped by every failed registry lookup; the
// concrete *dataset.UnknownError enumerates the registered names.
var ErrUnknownDataset = dataset.ErrUnknownDataset

// Datasets is the process-wide dataset registry: the four synthetic
// presets plus whatever file-backed entries the process registers.
// NewWorkbench resolves its dataset name here.
var Datasets = dataset.Default

// SaveSnapshot writes a dataset snapshot to the named file; loading it
// back yields bit-identical structures (and therefore bit-identical
// solves) without regenerating or re-parsing anything.
func SaveSnapshot(path string, s *Snapshot) error { return dataset.Save(path, s) }

// LoadSnapshot reads a snapshot written by SaveSnapshot (gzip detected
// transparently). Malformed input errors wrap ErrBadSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) { return dataset.Load(path) }

// LoadSnapshotMmap maps a snapshot file read-only and returns a
// Snapshot whose arrays alias the mapping — constant heap cost no
// matter the file size, the loader for beyond-RAM graphs. Falls back
// to the copy path where mmap cannot apply (gzip, foreign endianness,
// unsupported platform); either way the result is bit-identical to
// LoadSnapshot. Release the mapping with (*Snapshot).Close.
func LoadSnapshotMmap(path string) (*Snapshot, error) { return dataset.LoadMmap(path) }

// LoadGraphFile streams a text edge-list file (plain or gzip) into a
// Graph.
func LoadGraphFile(path string) (*Graph, error) { return dataset.LoadEdgeList(path) }

// SaveGraphFile writes a Graph as a text edge list; a ".gz" suffix
// selects gzip compression.
func SaveGraphFile(path string, g *Graph) error { return dataset.SaveEdgeList(path, g) }

// BenchReport types: the machine-readable `rmbench -json` schema
// (docs/bench-schema.md) that CI archives per commit.
type (
	// BenchReport is one benchmark run: provenance plus experiments.
	BenchReport = eval.BenchReport
	// BenchExperiment is one experiment's wall time, tables and runs.
	BenchExperiment = eval.BenchExperiment
	// BenchRun is one (algorithm, problem) measurement.
	BenchRun = eval.BenchRun
)
