// Package topic implements the paper's topic model and the Topic-aware
// Independent Cascade (TIC) probability structure (Barbieri et al., ICDM
// 2012), plus advertiser/ad descriptors.
//
// A Model stores, for every latent topic z and every arc (u,v), the
// topic-specific influence probability p^z_{u,v}. Given an ad with topic
// distribution γ, the ad-specific arc probability is the mixture
//
//	p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}    (Eq. 1 of the paper)
//
// With L=1 the TIC model reduces to the standard IC model, which is how the
// weighted-cascade datasets are represented.
package topic

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Distribution is a probability distribution over the latent topic space.
type Distribution []float64

// Validate returns an error unless the distribution is non-negative and
// sums to 1 within tolerance.
func (d Distribution) Validate() error {
	var sum float64
	for i, p := range d {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("topic: component %d is %v", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("topic: distribution sums to %v, want 1", sum)
	}
	return nil
}

// Entropy returns the Shannon entropy (nats) of the distribution.
func (d Distribution) Entropy() float64 {
	var h float64
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Peaked returns the paper's §5 ad distribution: mass `peak` on topic z and
// the remaining mass spread uniformly over the other topics (the paper uses
// peak=0.91 with L=10, leaving 0.01 per other topic).
func Peaked(l, z int, peak float64) Distribution {
	if l == 1 {
		return Distribution{1}
	}
	d := make(Distribution, l)
	rest := (1 - peak) / float64(l-1)
	for i := range d {
		d[i] = rest
	}
	d[z] = peak
	return d
}

// Model holds per-topic arc probabilities aligned with a graph's canonical
// edge IDs: probs[z][e] is p^z for edge e.
type Model struct {
	g     *graph.Graph
	probs [][]float32
}

// NumTopics returns L.
func (m *Model) NumTopics() int { return len(m.probs) }

// Graph returns the underlying graph.
func (m *Model) Graph() *graph.Graph { return m.g }

// Prob returns p^z for the given edge ID.
func (m *Model) Prob(z int, edgeID int64) float64 {
	return float64(m.probs[z][edgeID])
}

// TopicProbs returns the raw per-edge probability slice of topic z,
// aligned with the graph's canonical edge IDs — the array the binary
// snapshot format persists. The slice aliases internal storage and must
// be treated as read-only.
func (m *Model) TopicProbs(z int) []float32 { return m.probs[z] }

// EdgeProbs materializes the ad-specific arc probabilities p^i (Eq. 1) for
// an ad with topic distribution gamma. For L=1 the returned slice aliases
// the model's storage and must be treated as read-only; for L>1 a fresh
// slice is returned.
func (m *Model) EdgeProbs(gamma Distribution) []float32 {
	if len(gamma) != m.NumTopics() {
		panic(fmt.Sprintf("topic: ad has %d topics, model has %d", len(gamma), m.NumTopics()))
	}
	if m.NumTopics() == 1 {
		return m.probs[0]
	}
	out := make([]float32, m.g.NumEdges())
	for z, gz := range gamma {
		if gz == 0 {
			continue
		}
		pz := m.probs[z]
		g32 := float32(gz)
		for e := range out {
			out[e] += g32 * pz[e]
		}
	}
	return out
}

// NewWeightedCascade builds the single-topic weighted-cascade model:
// p_{u,v} = 1/indeg(v) (Kempe et al., KDD 2003), the model the paper uses
// for EPINIONS, DBLP and LIVEJOURNAL.
func NewWeightedCascade(g *graph.Graph) *Model {
	probs := make([]float32, g.NumEdges())
	for v := int32(0); v < g.NumNodes(); v++ {
		ind := g.InDegree(v)
		if ind == 0 {
			continue
		}
		p := float32(1) / float32(ind)
		for _, e := range g.InEdgeIDs(v) {
			probs[e] = p
		}
	}
	return &Model{g: g, probs: [][]float32{probs}}
}

// NewUniformIC builds a single-topic IC model with constant arc
// probability p.
func NewUniformIC(g *graph.Graph, p float64) *Model {
	probs := make([]float32, g.NumEdges())
	p32 := float32(p)
	for i := range probs {
		probs[i] = p32
	}
	return &Model{g: g, probs: [][]float32{probs}}
}

// TICParams controls the synthetic TIC probability generator standing in
// for the paper's MLE-learned FLIXSTER probabilities.
type TICParams struct {
	// L is the number of latent topics (the paper uses 10).
	L int
	// Activity is the probability that an arc is active (non-zero) in a
	// given topic; topic-specific sparsity is what makes topics differ and
	// ads compete for different influencers.
	Activity float64
	// Levels are the probability values drawn for active arcs, with
	// Weights giving their relative frequencies.
	Levels  []float32
	Weights []float64
}

// DefaultTICParams mirrors the trivalency levels {0.1, 0.01, 0.001} (Chen
// et al., KDD 2010) with moderate per-topic sparsity, calibrated so
// singleton spreads on the FLIXSTER-like graph are in the
// tens-to-hundreds range, as in the paper's learned model.
func DefaultTICParams() TICParams {
	return TICParams{
		L:        10,
		Activity: 0.55,
		Levels:   []float32{0.1, 0.01, 0.001},
		Weights:  []float64{0.3, 0.4, 0.3},
	}
}

// NewTICRandom builds a synthetic multi-topic TIC model according to p.
func NewTICRandom(g *graph.Graph, p TICParams, rng *xrand.RNG) *Model {
	if p.L < 1 {
		panic("topic: TICParams.L must be >= 1")
	}
	if len(p.Levels) != len(p.Weights) || len(p.Levels) == 0 {
		panic("topic: TICParams levels/weights mismatch")
	}
	var totW float64
	for _, w := range p.Weights {
		totW += w
	}
	probs := make([][]float32, p.L)
	for z := range probs {
		pz := make([]float32, g.NumEdges())
		for e := range pz {
			if !rng.Bool(p.Activity) {
				continue
			}
			r := rng.Float64() * totW
			acc := 0.0
			for i, w := range p.Weights {
				acc += w
				if r < acc {
					pz[e] = p.Levels[i]
					break
				}
			}
		}
		probs[z] = pz
	}
	return &Model{g: g, probs: probs}
}

// Rebind carries the model across a graph.ApplyDelta: it returns a new
// Model aligned with the successor graph ng, copying each surviving
// edge's per-topic probabilities through remap.NewToOld, zero-filling
// arcs the delta inserted, and then applying the delta's probability
// updates. The receiver is untouched. Updates referencing a topic
// outside [0, L) reject with graph.ErrBadDelta — the graph layer cannot
// check L, so this is where that half of delta validation lives.
func (m *Model) Rebind(ng *graph.Graph, remap *graph.EdgeRemap, updates []graph.ProbUpdate) (*Model, error) {
	if int64(len(remap.NewToOld)) != ng.NumEdges() {
		return nil, fmt.Errorf("topic: remap covers %d edges, successor has %d",
			len(remap.NewToOld), ng.NumEdges())
	}
	probs := make([][]float32, len(m.probs))
	for z := range m.probs {
		pz := make([]float32, ng.NumEdges())
		old := m.probs[z]
		for e, oe := range remap.NewToOld {
			if oe >= 0 {
				pz[e] = old[oe]
			}
		}
		probs[z] = pz
	}
	for _, up := range updates {
		if up.Topic < 0 || up.Topic >= len(probs) {
			return nil, fmt.Errorf("%w: set-prob (%d,%d) topic %d outside model's %d topics",
				graph.ErrBadDelta, up.U, up.V, up.Topic, len(probs))
		}
		e, ok := ng.EdgeID(up.U, up.V)
		if !ok {
			return nil, fmt.Errorf("%w: set-prob (%d,%d) arc missing from successor graph",
				graph.ErrBadDelta, up.U, up.V)
		}
		probs[up.Topic][e] = up.P
	}
	return &Model{g: ng, probs: probs}, nil
}

// FromProbs builds a model from explicit per-topic edge probabilities
// (mainly for tests and hand-built instances). The slices are not copied.
func FromProbs(g *graph.Graph, probs [][]float32) *Model {
	if len(probs) == 0 {
		panic("topic: FromProbs needs at least one topic")
	}
	for z, pz := range probs {
		if int64(len(pz)) != g.NumEdges() {
			panic(fmt.Sprintf("topic: topic %d has %d probs, graph has %d edges",
				z, len(pz), g.NumEdges()))
		}
	}
	return &Model{g: g, probs: probs}
}
