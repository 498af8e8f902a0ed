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

// pathGoldens pins every registry mode × Workers {1,4} × ShareSamples on
// smallWCProblem(4, 31), Seed 17, ε 0.3, MaxThetaPerAd 400000 — a cap
// high enough that θ actually grows, so growth resampling, KPT refresh
// and the one-pass presizing are all pinned, not just the initial
// sample. Shared cases add a "+delta" row: the re-solve after an
// ApplyDelta, which runs on a carried, repaired and restreamed cached
// universe. Recorded on the engine's original storage layout (exclusive
// ads on a plain collection, shared ads on an unsharded universe), so
// they pin that output across any change of storage path.
var pathGoldens = map[string]pathGolden{
	"ti-csrm/w1/share=false":          {0x83d184321b9fd78d, 221727, []int{45365, 63890, 52197, 60275}},
	"ti-csrm/w1/share=true":           {0xed596f928f895297, 50927, []int{50927, 50927, 50927, 50927}},
	"ti-csrm/w1/share=true+delta":     {0xa9a3766f113db2b2, 62146, []int{62146, 62146, 62146, 62146}},
	"ti-csrm/w4/share=false":          {0x3f60d11be10d116a, 212728, []int{53974, 63808, 45612, 49334}},
	"ti-csrm/w4/share=true":           {0xc5187c0dd2a8330d, 62489, []int{62489, 62489, 62489, 62489}},
	"ti-csrm/w4/share=true+delta":     {0x983480f656a0d90d, 56257, []int{56257, 56257, 56257, 56257}},
	"ti-carm/w1/share=false":          {0x7e0737d62e216854, 162542, []int{42952, 45764, 39509, 34317}},
	"ti-carm/w1/share=true":           {0x5700f90afafb37a8, 37592, []int{37592, 37592, 37592, 37592}},
	"ti-carm/w1/share=true+delta":     {0x40e56b1388abebc5, 38812, []int{38812, 38812, 38812, 38812}},
	"ti-carm/w4/share=false":          {0x9b428d744f354a65, 149035, []int{37182, 41799, 34521, 35533}},
	"ti-carm/w4/share=true":           {0x4520fe4704e109b4, 36099, []int{36099, 36099, 36099, 36099}},
	"ti-carm/w4/share=true+delta":     {0xbabe431b16b0fa91, 43583, []int{43583, 43583, 43583, 43583}},
	"hc-csrm/w1/share=false":          {0xe504a0aa6ce3a543, 142728, []int{35880, 36574, 35957, 34317}},
	"hc-csrm/w1/share=true":           {0x361a2775f387c276, 35952, []int{35952, 35952, 35952, 35952}},
	"hc-csrm/w1/share=true+delta":     {0x404c38cb9166e4bd, 34509, []int{34509, 34509, 34509, 34509}},
	"hc-csrm/w4/share=false":          {0x701ee6249e94020b, 139019, []int{35907, 33556, 34023, 35533}},
	"hc-csrm/w4/share=true":           {0x3c50a06ba0435ee6, 31655, []int{31655, 31655, 31655, 31655}},
	"hc-csrm/w4/share=true+delta":     {0x0bdd2bf3f6ad188a, 34986, []int{34986, 34986, 34986, 34986}},
	"hc-carm/w1/share=false":          {0xe622ee25a3e8293e, 142728, []int{35880, 36574, 35957, 34317}},
	"hc-carm/w1/share=true":           {0x0e91da9397c83fa3, 35952, []int{35952, 35952, 35952, 35952}},
	"hc-carm/w1/share=true+delta":     {0x9877d98462a8b913, 34509, []int{34509, 34509, 34509, 34509}},
	"hc-carm/w4/share=false":          {0x755ad80df8321a96, 139019, []int{35907, 33556, 34023, 35533}},
	"hc-carm/w4/share=true":           {0x9c1da60911ef83ac, 31655, []int{31655, 31655, 31655, 31655}},
	"hc-carm/w4/share=true+delta":     {0x87699aa7f7eb235a, 34986, []int{34986, 34986, 34986, 34986}},
	"pagerank-gr/w1/share=false":      {0x2cb39a61161db591, 158052, []int{42952, 41274, 39509, 34317}},
	"pagerank-gr/w1/share=true":       {0x846e0fea5a6d5d5f, 37592, []int{37592, 37592, 37592, 37592}},
	"pagerank-gr/w1/share=true+delta": {0x725303a815cfee09, 38812, []int{38812, 38812, 38812, 38812}},
	"pagerank-gr/w4/share=false":      {0x865d144cebef7c36, 144934, []int{37182, 37698, 34521, 35533}},
	"pagerank-gr/w4/share=true":       {0xd75094db4cabc3b4, 36099, []int{36099, 36099, 36099, 36099}},
	"pagerank-gr/w4/share=true+delta": {0x1bb7b21720cd5ace, 43583, []int{43583, 43583, 43583, 43583}},
	"pagerank-rr/w1/share=false":      {0xccb49dc6ef9c981a, 155584, []int{42952, 38806, 39509, 34317}},
	"pagerank-rr/w1/share=true":       {0x00a878a499fc24c0, 36115, []int{36115, 36115, 36115, 36115}},
	"pagerank-rr/w1/share=true+delta": {0x7e2283f7e440cbb6, 38812, []int{38812, 38812, 38812, 38812}},
	"pagerank-rr/w4/share=false":      {0x6bbbd5dba0beb3ca, 143923, []int{37182, 36687, 34521, 35533}},
	"pagerank-rr/w4/share=true":       {0x40a055ffedd1b463, 36099, []int{36099, 36099, 36099, 36099}},
	"pagerank-rr/w4/share=true+delta": {0xe96e360fcff203a4, 43583, []int{43583, 43583, 43583, 43583}},
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

func checkPathGolden(t *testing.T, name string, alloc *Allocation, stats *Stats) {
	t.Helper()
	got := pathGolden{hash: seedsHash(alloc), total: stats.TotalRRSets, theta: stats.Theta}
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
		for _, workers := range []int{1, 4} {
			for _, share := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/share=%v", info.Name, workers, share)
				eng := NewEngine(p.Graph, p.Model, EngineOptions{Workers: workers})
				opt := Options{Mode: info.Mode, Epsilon: 0.3, Seed: 17,
					MaxThetaPerAd: 400000, ShareSamples: share}
				if info.NeedsPRScores {
					opt.PRScores = scores
				}
				alloc, stats, err := eng.Solve(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkPathGolden(t, name, alloc, stats)
				if !share {
					continue
				}
				if _, err := eng.ApplyDelta(context.Background(), pathGoldenDelta(t, p.Graph)); err != nil {
					t.Fatalf("%s: delta: %v", name, err)
				}
				p1 := rebindProblem(eng, p)
				alloc, stats, err = eng.Solve(context.Background(), p1, opt)
				if err != nil {
					t.Fatalf("%s+delta: %v", name, err)
				}
				checkPathGolden(t, name+"+delta", alloc, stats)
			}
		}
	}
}
