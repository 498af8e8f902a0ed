// Package incentive implements the paper's seed-user incentive models
// (Section 5, "Seed incentive models"). The incentive c_i(u) a seed user u
// receives for endorsing ad i is a monotone function f of u's demonstrated
// influence in the ad's topic, i.e. of the singleton expected spread
// σ_i({u}):
//
//	linear       c_i(u) = α · σ_i({u})
//	constant     c_i(u) = α · (Σ_v σ_i({v})) / n
//	sublinear    c_i(u) = α · log σ_i({u})
//	superlinear  c_i(u) = α · σ_i({u})²
//
// where α > 0 is a host-chosen scale (dollar cents). Singleton spreads can
// come from Monte-Carlo simulation (cascade.SingletonSpreads, the paper's
// FLIXSTER/EPINIONS setup, 5K runs) or from the out-degree proxy (the
// paper's DBLP/LIVEJOURNAL setup).
package incentive

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Kind selects one of the paper's four incentive models.
type Kind int

const (
	// Linear is c(u) = α·σ({u}).
	Linear Kind = iota
	// Constant is c(u) = α·mean(σ): every node costs the same, nullifying
	// cost sensitivity (the paper's control condition).
	Constant
	// Sublinear is c(u) = α·log σ({u}) (clamped at 0 from below).
	Sublinear
	// Superlinear is c(u) = α·σ({u})².
	Superlinear
)

// ParseKind maps a CLI string to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "constant":
		return Constant, nil
	case "sublinear":
		return Sublinear, nil
	case "superlinear":
		return Superlinear, nil
	}
	return 0, fmt.Errorf("incentive: unknown kind %q", s)
}

func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Constant:
		return "constant"
	case Sublinear:
		return "sublinear"
	case Superlinear:
		return "superlinear"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Table holds the materialized incentive costs c_i(u) for one ad.
type Table struct {
	kind  Kind
	alpha float64
	costs []float64
	max   float64
}

// Build materializes the incentive table for one ad from its singleton
// spreads.
func Build(kind Kind, alpha float64, sigma []float64) *Table {
	if alpha <= 0 {
		panic("incentive: alpha must be positive")
	}
	t := &Table{kind: kind, alpha: alpha, costs: make([]float64, len(sigma))}
	switch kind {
	case Linear:
		for u, s := range sigma {
			t.costs[u] = alpha * s
		}
	case Constant:
		var sum float64
		for _, s := range sigma {
			sum += s
		}
		c := alpha * sum / float64(len(sigma))
		for u := range t.costs {
			t.costs[u] = c
		}
	case Sublinear:
		for u, s := range sigma {
			if s > 1 {
				t.costs[u] = alpha * math.Log(s)
			}
		}
	case Superlinear:
		for u, s := range sigma {
			t.costs[u] = alpha * s * s
		}
	default:
		panic(fmt.Sprintf("incentive: unknown kind %d", kind))
	}
	for _, c := range t.costs {
		if c > t.max {
			t.max = c
		}
	}
	return t
}

// Kind returns the model the table was built with.
func (t *Table) Kind() Kind { return t.kind }

// Alpha returns the scale the table was built with.
func (t *Table) Alpha() float64 { return t.alpha }

// Cost returns c_i(u).
func (t *Table) Cost(u int32) float64 { return t.costs[u] }

// MaxCost returns c_i^max = max_v c_i(v), used in the latent seed-set size
// update (Eq. 10).
func (t *Table) MaxCost() float64 { return t.max }

// NumNodes returns the number of nodes covered by the table.
func (t *Table) NumNodes() int { return len(t.costs) }

// TotalCost returns Σ_{u∈S} c_i(u).
func (t *Table) TotalCost(S []int32) float64 {
	var sum float64
	for _, u := range S {
		sum += t.costs[u]
	}
	return sum
}

// SingletonsOutDegree returns the out-degree proxy for singleton spreads
// (the paper's protocol on DBLP and LIVEJOURNAL, where Monte-Carlo is
// prohibitive).
func SingletonsOutDegree(g *graph.Graph) []float64 {
	out := make([]float64, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		out[u] = float64(g.OutDegree(u))
	}
	return out
}
