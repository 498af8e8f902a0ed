package core

import (
	"errors"
	"fmt"
	"strings"
)

// AlgorithmInfo describes one registered engine algorithm: its canonical
// name, Mode, provenance, and the capability flags the solver dispatches
// on. The registry below is the single source of truth for mode parsing,
// display names, CLI help text and capability checks — the CLIs, the
// experiment harness and the serving layer all consume it, so adding an
// algorithm is one new entry here plus its selection rule, never another
// hand-rolled switch.
type AlgorithmInfo struct {
	Mode Mode
	// Name is the canonical lower-case identifier: what ParseMode
	// accepts, what `rmsolve -alg` and the serving API's "mode" field
	// take, and what appears in cache keys.
	Name string
	// Display is the human-facing label; Mode.String returns it.
	Display string
	// Paper cites the algorithm's source.
	Paper string
	// Guarantee summarizes the approximation guarantee (empty for
	// heuristics without one).
	Guarantee string
	// Description is a one-line summary for help text.
	Description string

	// CostSensitive algorithms pick candidates by coverage-to-cost ratio
	// and compare ads by marginal revenue per marginal payment; cost-
	// agnostic ones use raw marginal coverage/revenue.
	CostSensitive bool
	// NeedsPRScores algorithms require Options.PRScores (per-ad static
	// node rankings) instead of RR-coverage candidate keys.
	NeedsPRScores bool
	// OnePass algorithms fix the latent seed-set size estimate s̃ once,
	// up front, extend the RR sample to L(s̃, ε) in a single step, and
	// run the greedy pass without any further growth events — the
	// early-termination scheme of Han & Cui et al.
	OnePass bool
	// RoundRobin algorithms serve advertisers cyclically instead of
	// committing the best cross-ad candidate each round.
	RoundRobin bool
	// SupportsWindow: Options.Window restricts the candidate search.
	SupportsWindow bool
	// SupportsShards: runs on a sharded Engine (EngineOptions.Shards).
	SupportsShards bool
	// SupportsDeltas: runs across Engine.ApplyDelta generation swaps.
	SupportsDeltas bool
}

// registry holds every engine algorithm in canonical presentation order.
// All modes run on the shared RR arena and shard-view substrate, so they
// all support shards and dynamic-graph deltas; the flags exist so that a
// future mode without that property degrades discoverably, not silently.
var registry = []AlgorithmInfo{
	{
		Mode:           ModeCostSensitive,
		Name:           "ti-csrm",
		Display:        "TI-CSRM",
		Paper:          "Aslay et al., VLDB 2017",
		Guarantee:      "1/2·(1−1/e) of the cost-sensitive greedy's guarantee (Thm. 4, ±ε)",
		Description:    "cost-sensitive RR greedy: coverage-to-cost candidates, revenue-per-payment across ads",
		CostSensitive:  true,
		SupportsWindow: true,
		SupportsShards: true,
		SupportsDeltas: true,
	},
	{
		Mode:           ModeCostAgnostic,
		Name:           "ti-carm",
		Display:        "TI-CARM",
		Paper:          "Aslay et al., VLDB 2017",
		Guarantee:      "κ-dependent bound of Theorem 2 (±ε)",
		Description:    "cost-agnostic RR greedy: max-coverage candidates, max marginal revenue across ads",
		SupportsShards: true,
		SupportsDeltas: true,
	},
	{
		Mode:           ModeOnePassCostSensitive,
		Name:           "hc-csrm",
		Display:        "HC-CSRM",
		Paper:          "Han & Cui et al., arXiv:2107.04997",
		Guarantee:      "heuristic: TI-CSRM's rule on a one-shot sample (no growth-time guarantee)",
		Description:    "one-pass cost-sensitive greedy: seed-set size s̃ fixed up front, single sample extension, no growth events",
		CostSensitive:  true,
		OnePass:        true,
		SupportsWindow: true,
		SupportsShards: true,
		SupportsDeltas: true,
	},
	{
		Mode:           ModeOnePassCostAgnostic,
		Name:           "hc-carm",
		Display:        "HC-CARM",
		Paper:          "Han & Cui et al., arXiv:2107.04997",
		Guarantee:      "heuristic: TI-CARM's rule on a one-shot sample (no growth-time guarantee)",
		Description:    "one-pass cost-agnostic greedy: seed-set size s̃ fixed up front, single sample extension, no growth events",
		OnePass:        true,
		SupportsShards: true,
		SupportsDeltas: true,
	},
	{
		Mode:           ModePRGreedy,
		Name:           "pagerank-gr",
		Display:        "PageRank-GR",
		Paper:          "Aslay et al., VLDB 2017 (baseline)",
		Description:    "influence-weighted PageRank candidates, max marginal revenue across ads",
		NeedsPRScores:  true,
		SupportsShards: true,
		SupportsDeltas: true,
	},
	{
		Mode:           ModePRRoundRobin,
		Name:           "pagerank-rr",
		Display:        "PageRank-RR",
		Paper:          "Aslay et al., VLDB 2017 (baseline)",
		Description:    "influence-weighted PageRank candidates, advertisers served round-robin",
		NeedsPRScores:  true,
		RoundRobin:     true,
		SupportsShards: true,
		SupportsDeltas: true,
	},
}

// DefaultModeName is the canonical name of the default algorithm — the
// paper's winner — used by the CLIs and the serving layer when no mode
// is requested.
const DefaultModeName = "ti-csrm"

// ErrUnknownMode is the sentinel wrapped by every failed mode lookup.
// The concrete error is an *UnknownModeError carrying the registered
// canonical names, so callers (CLI flag parsing, the serving layer's
// 400 answers) can enumerate what would have parsed.
var ErrUnknownMode = errors.New("unknown mode")

// UnknownModeError reports an algorithm name that does not resolve in
// the registry. It wraps ErrUnknownMode and mirrors the shape of
// dataset.UnknownError.
type UnknownModeError struct {
	Name       string
	Registered []string
}

func (e *UnknownModeError) Error() string {
	return fmt.Sprintf("core: unknown mode %q (registered: %s)",
		e.Name, strings.Join(e.Registered, ", "))
}

func (e *UnknownModeError) Unwrap() error { return ErrUnknownMode }

// Algorithms returns every registered algorithm in canonical order. The
// slice is a copy; callers may reorder or filter it freely.
func Algorithms() []AlgorithmInfo {
	return append([]AlgorithmInfo(nil), registry...)
}

// ModeNames returns the canonical names in registry order — the CLI and
// API help-text enumeration.
func ModeNames() []string {
	names := make([]string, len(registry))
	for i, info := range registry {
		names[i] = info.Name
	}
	return names
}

// ParseMode resolves an algorithm name to its Mode. Matching is
// case-insensitive on both the canonical name and the display label
// ("TI-CSRM" and "ti-csrm" resolve identically); surrounding space is
// ignored. A miss returns an *UnknownModeError enumerating the
// registered names, wrapping ErrUnknownMode.
func ParseMode(name string) (Mode, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	for _, info := range registry {
		if s == info.Name || s == strings.ToLower(info.Display) {
			return info.Mode, nil
		}
	}
	return 0, &UnknownModeError{Name: name, Registered: ModeNames()}
}

// ModeInfo returns the registry entry for a Mode, reporting whether the
// mode is registered. The solver validates modes through it, so an
// unregistered Mode value never reaches a session.
func ModeInfo(m Mode) (AlgorithmInfo, bool) {
	for _, info := range registry {
		if info.Mode == m {
			return info, true
		}
	}
	return AlgorithmInfo{}, false
}
