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
	"ti-csrm/share=false":          {0x5c404a4fb5a4ee8c, 225466, []int{47082, 76688, 49420, 52276}},
	"ti-csrm/share=true":           {0x1e1600185bc4d806, 70948, []int{70948, 70948, 70948, 70948}},
	"ti-csrm/share=true+delta":     {0x9ae042199b64f2b7, 57060, []int{57060, 57060, 57060, 57060}},
	"ti-carm/share=false":          {0xe000f41bdca0e9f2, 149359, []int{39228, 37425, 35717, 36989}},
	"ti-carm/share=true":           {0x5aa57d0ffbb30fee, 37138, []int{37138, 37138, 37138, 37138}},
	"ti-carm/share=true+delta":     {0x16a0233b5925b1a8, 37852, []int{37852, 37852, 37852, 37852}},
	"hc-csrm/share=false":          {0x692c3e3c48d27f18, 134319, []int{31825, 36000, 34070, 32424}},
	"hc-csrm/share=true":           {0x7cce6c6a94fdf818, 35564, []int{35564, 35564, 35564, 35564}},
	"hc-csrm/share=true+delta":     {0x0155d742daed2aa5, 36357, []int{36357, 36357, 36357, 36357}},
	"hc-carm/share=false":          {0x6946dded907706cc, 134319, []int{31825, 36000, 34070, 32424}},
	"hc-carm/share=true":           {0xc0cd03e2ca3bbe26, 35564, []int{35564, 35564, 35564, 35564}},
	"hc-carm/share=true+delta":     {0x05bbc2748a12998d, 36357, []int{36357, 36357, 36357, 36357}},
	"pagerank-gr/share=false":      {0x7f6aebfdb1ac9222, 149359, []int{39228, 37425, 35717, 36989}},
	"pagerank-gr/share=true":       {0x9a75cab80902c4d9, 36469, []int{36469, 36469, 36469, 36469}},
	"pagerank-gr/share=true+delta": {0xe286548a36cf336e, 37852, []int{37852, 37852, 37852, 37852}},
	"pagerank-rr/share=false":      {0x5980bb331936e6da, 149359, []int{39228, 37425, 35717, 36989}},
	"pagerank-rr/share=true":       {0x8bd56c32e4218e89, 36469, []int{36469, 36469, 36469, 36469}},
	"pagerank-rr/share=true+delta": {0xa8d28610a051bab5, 37852, []int{37852, 37852, 37852, 37852}},
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
