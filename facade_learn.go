package repro

import (
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/xrand"
)

// Influence-model learning types (the pipeline behind the paper's
// MLE-learned probabilities).
type (
	// Episode is one observed cascade: (node, time) activations.
	Episode = learn.Episode
	// Activation is a single engagement event.
	Activation = learn.Activation
	// LearnOptions tunes the EM estimator.
	LearnOptions = learn.Options
)

// SimulateEpisodes generates training cascades from a known IC instance.
func SimulateEpisodes(g *Graph, probs []float32, episodes, seedsPerEpisode int, rng *RNG) []Episode {
	return learn.SimulateEpisodes(g, probs, episodes, seedsPerEpisode, rng)
}

// EstimateIC learns IC edge probabilities from episodes via the EM
// estimator of Saito et al. (2008).
func EstimateIC(g *Graph, eps []Episode, opt LearnOptions) []float32 {
	return learn.EstimateIC(g, eps, opt)
}

// CascadeLogLikelihood scores edge probabilities against observed
// episodes (higher is better).
func CascadeLogLikelihood(g *Graph, probs []float32, eps []Episode) float64 {
	return learn.LogLikelihood(g, probs, eps)
}

// Compile-time checks that facade aliases stay interchangeable with their
// internal definitions.
var (
	_ = func(g *graph.Graph) *Graph { return g }
	_ = func(r *xrand.RNG) *RNG { return r }
)
