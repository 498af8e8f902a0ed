package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// pathGolden is one pinned solve: the allocation's seedsHash, the RR
// sets the session drew, and every ad's final θ.
type pathGolden struct {
	hash  uint64
	total int64
	theta []int
}

// pathGoldens pins every registry mode × ShareSamples on
// smallWCProblem(4, 31), Seed 17, ε 0.3, MaxThetaPerAd 400000 — a cap
// high enough that θ actually grows, so growth resampling, KPT refresh
// and the one-pass presizing are all pinned, not just the initial
// sample. Shared cases add a "+delta" row: the re-solve after an
// ApplyDelta, which runs on a carried, repaired and restreamed cached
// universe. Every row is asserted equal at Workers 1 and 4.
var pathGoldens = map[string]pathGolden{
	"ti-csrm/share=false":          {0x1ab5cda0136e7c89, 218438, []int{56466, 54090, 52916, 54966}},
	"ti-csrm/share=true":           {0xab74b5b8adf5451b, 58592, []int{58592, 58592, 58592, 58592}},
	"ti-csrm/share=true+delta":     {0x121b7c9e91ef3483, 57715, []int{57715, 57715, 57715, 57715}},
	"ti-carm/share=false":          {0xc25e9106a5bdfff0, 149081, []int{37446, 39390, 35017, 37228}},
	"ti-carm/share=true":           {0x965fba66ec803b3e, 37081, []int{37081, 37081, 37081, 37081}},
	"ti-carm/share=true+delta":     {0xee225564014edef4, 36738, []int{36738, 36738, 36738, 36738}},
	"hc-csrm/share=false":          {0xd3bdb9f2e781a6c2, 140454, []int{37446, 34746, 33020, 35242}},
	"hc-csrm/share=true":           {0xadc3cc4f6b81ebd3, 34184, []int{34184, 34184, 34184, 34184}},
	"hc-csrm/share=true+delta":     {0xb74796a1b3d5d3e3, 33721, []int{33721, 33721, 33721, 33721}},
	"hc-carm/share=false":          {0xdc459de085619b57, 140454, []int{37446, 34746, 33020, 35242}},
	"hc-carm/share=true":           {0x552f2f7d00d09567, 34184, []int{34184, 34184, 34184, 34184}},
	"hc-carm/share=true+delta":     {0xce073c489bb34dc6, 33721, []int{33721, 33721, 33721, 33721}},
	"pagerank-gr/share=false":      {0x63fadd973a086463, 145217, []int{37446, 35526, 35017, 37228}},
	"pagerank-gr/share=true":       {0xc4f52ae5edf3a0bc, 37081, []int{37081, 37081, 37081, 37081}},
	"pagerank-gr/share=true+delta": {0x1b99b0f8579ea08f, 40412, []int{40412, 40412, 40412, 40412}},
	"pagerank-rr/share=false":      {0x771e644e429c62b2, 144437, []int{37446, 34746, 35017, 37228}},
	"pagerank-rr/share=true":       {0x54c9d4ae814846d9, 35420, []int{35420, 35420, 35420, 35420}},
	"pagerank-rr/share=true+delta": {0x74933eeeeaf29a95, 36738, []int{36738, 36738, 36738, 36738}},
}

// pathGoldenScores are static per-ad node rankings (out-degree) for the
// PageRank modes, which need Options.PRScores.
func pathGoldenScores(p *Problem) [][]float64 {
	scores := make([][]float64, p.NumAds())
	for i := range scores {
		scores[i] = make([]float64, p.Graph.NumNodes())
		for u := int32(0); u < p.Graph.NumNodes(); u++ {
			scores[i][u] = float64(p.Graph.OutDegree(u))
		}
	}
	return scores
}

// pathGoldenDelta removes the first out-arc of the first three nodes
// with out-degree above 2, so some cached RR sets go stale and the swap
// repairs them.
func pathGoldenDelta(t *testing.T, g *graph.Graph) *graph.Delta {
	t.Helper()
	var d graph.Delta
	for u := int32(0); u < g.NumNodes() && len(d.RemoveEdges) < 3; u++ {
		if outs := g.OutNeighbors(u); len(outs) > 2 {
			d.RemoveEdges = append(d.RemoveEdges, graph.Edge{U: u, V: outs[0]})
		}
	}
	if len(d.RemoveEdges) == 0 {
		t.Fatal("golden graph has no removable arcs")
	}
	return &d
}

func checkPathGolden(t *testing.T, name string, got pathGolden) {
	t.Helper()
	lit := fmt.Sprintf("%q: {%#016x, %d, %#v},", name, got.hash, got.total, got.theta)
	want, ok := pathGoldens[name]
	if !ok {
		t.Errorf("no golden for %s; got %s", name, lit)
		return
	}
	if got.hash != want.hash || got.total != want.total || fmt.Sprint(got.theta) != fmt.Sprint(want.theta) {
		t.Errorf("%s drifted: want {%#016x, %d, %v}, got %s", name, want.hash, want.total, want.theta, lit)
	}
}

// TestPathGolden is the registry-wide storage-path golden described on
// pathGoldens.
func TestPathGolden(t *testing.T) {
	p := smallWCProblem(4, 31)
	scores := pathGoldenScores(p)
	for _, info := range Algorithms() {
		for _, share := range []bool{false, true} {
			name := fmt.Sprintf("%s/share=%v", info.Name, share)
			opt := Options{Mode: info.Mode, Epsilon: 0.3, Seed: 17,
				MaxThetaPerAd: 400000, ShareSamples: share}
			if info.NeedsPRScores {
				opt.PRScores = scores
			}
			// rows[w] holds the solve, and for shared cases the
			// post-delta re-solve, at Workers w.
			rows := map[int][]pathGolden{}
			for _, workers := range []int{1, 4} {
				eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers})
				alloc, stats, err := eng.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("%s/w%d: %v", name, workers, err)
				}
				rows[workers] = append(rows[workers], pathGolden{seedsHash(alloc), stats.TotalRRSets, stats.Theta})
				if !share {
					continue
				}
				if _, err := eng.ApplyDelta(context.Background(), pathGoldenDelta(t, p.Graph)); err != nil {
					t.Fatalf("%s/w%d: delta: %v", name, workers, err)
				}
				alloc, stats, err = eng.Solve(context.Background(), rebindProblem(eng, p), opt)
				if err != nil {
					t.Fatalf("%s/w%d+delta: %v", name, workers, err)
				}
				rows[workers] = append(rows[workers], pathGolden{seedsHash(alloc), stats.TotalRRSets, stats.Theta})
			}
			if fmt.Sprint(rows[1]) != fmt.Sprint(rows[4]) {
				t.Errorf("%s: Workers 1 gave %v, Workers 4 %v", name, rows[1], rows[4])
			}
			for i, suffix := range []string{"", "+delta"}[:len(rows[1])] {
				checkPathGolden(t, name+suffix, rows[1][i])
			}
		}
	}
}
