package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/incentive"
)

// tinyParams keeps harness tests fast: tiny graphs, coarse ε, capped θ.
func tinyParams() Params {
	return Params{
		Scale:         gen.ScaleTiny,
		Seed:          1,
		H:             4,
		Epsilon:       0.3,
		MaxThetaPerAd: 30000,
		MCEvalRuns:    400,
		SingletonRuns: 100,
		Workers:       2,
		AlphaPoints:   2,
	}
}

func TestDatasetStats(t *testing.T) {
	tbl, err := DatasetStats(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "flixster" || tbl.Rows[3][0] != "livejournal" {
		t.Errorf("Table 1 dataset order wrong: %v", tbl.Rows)
	}
	// DBLP row must be undirected.
	if tbl.Rows[2][3] != "undirected" {
		t.Errorf("DBLP type = %q, want undirected", tbl.Rows[2][3])
	}
}

func TestBudgetStats(t *testing.T) {
	tbl, err := BudgetStats(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("Table 2 has %d rows, want 2", len(tbl.Rows))
	}
}

func TestFig1Report(t *testing.T) {
	tbl, err := Fig1Report()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"OPT revenue":       "6",
		"CA-GREEDY revenue": "3",
		"CS-GREEDY revenue": "6",
		"Theorem 2 bound":   "0.5",
	}
	found := 0
	for _, row := range tbl.Rows {
		if w, ok := want[row[0]]; ok {
			found++
			if row[1] != w {
				t.Errorf("%s = %s, want %s", row[0], row[1], w)
			}
		}
	}
	if found != len(want) {
		t.Errorf("missing fig1 rows: %v", tbl.Rows)
	}
}

func TestQualitySweepShapes(t *testing.T) {
	params := tinyParams()
	cells, err := QualitySweep(
		context.Background(),
		[]string{"epinions"},
		[]incentive.Kind{incentive.Linear, incentive.Constant},
		PaperAlgorithms(),
		params, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 kinds × 2 alphas = 4 cells, each with 4 algorithms.
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if len(c.Results) != 4 {
			t.Fatalf("cell %v has %d results", c, len(c.Results))
		}
		for alg, res := range c.Results {
			if res.Revenue < 0 || res.SeedCost < 0 {
				t.Errorf("%v: negative accounting: %+v", alg, res)
			}
			if res.Seeds == 0 {
				t.Errorf("%v allocated no seeds at α=%v", alg, c.Alpha)
			}
		}
	}

	fig2 := RevenueVsAlphaTable(cells, PaperAlgorithms())
	if len(fig2.Rows) != 4 || len(fig2.Header) != 3+4 {
		t.Errorf("fig2 table wrong shape: %d rows × %d cols", len(fig2.Rows), len(fig2.Header))
	}
	fig3 := SeedCostVsAlphaTable(cells, PaperAlgorithms())
	if len(fig3.Rows) != 4 {
		t.Errorf("fig3 table wrong shape")
	}
}

// The paper's core quality claims, checked on a tiny instance: TI-CSRM is
// never substantially below TI-CARM, and under constant incentives the
// two coincide.
func TestQualityShape(t *testing.T) {
	params := tinyParams()
	params.AlphaPoints = 1
	cells, err := QualitySweep(
		context.Background(),
		[]string{"epinions"},
		[]incentive.Kind{incentive.Linear, incentive.Constant},
		[]Algorithm{AlgTICARM, AlgTICSRM},
		params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		cs := c.Results[AlgTICSRM]
		ca := c.Results[AlgTICARM]
		switch c.Kind {
		case incentive.Linear:
			if cs.Revenue < 0.9*ca.Revenue {
				t.Errorf("linear: TI-CSRM %v well below TI-CARM %v", cs.Revenue, ca.Revenue)
			}
			if cs.SeedCost > ca.SeedCost*1.2+1 {
				t.Errorf("linear: TI-CSRM seed cost %v above TI-CARM %v", cs.SeedCost, ca.SeedCost)
			}
		case incentive.Constant:
			rel := (cs.Revenue - ca.Revenue) / (ca.Revenue + 1)
			if rel < -0.1 || rel > 0.1 {
				t.Errorf("constant: CA %v and CS %v should coincide", ca.Revenue, cs.Revenue)
			}
		}
	}
}

func TestWindowTradeoff(t *testing.T) {
	params := tinyParams()
	points, err := WindowTradeoff(context.Background(), "epinions", []float64{0.2}, []int{1, 16, 0}, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	// The full window must not lose substantially to w=1 (Fig 4 shape:
	// revenue grows with w).
	if points[2].Revenue < 0.9*points[0].Revenue {
		t.Errorf("full window revenue %v below w=1 revenue %v",
			points[2].Revenue, points[0].Revenue)
	}
	tbl := WindowTradeoffTable(points)
	if tbl.Rows[2][2] != "N" {
		t.Errorf("full window should render as N, got %q", tbl.Rows[2][2])
	}
}

func TestScalabilityAdvertisers(t *testing.T) {
	params := tinyParams()
	points, err := ScalabilityAdvertisers(context.Background(), "dblp", []int{1, 2}, 10_000, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 h-values × 2 algorithms
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, pt := range points {
		if pt.Duration <= 0 {
			t.Errorf("%v h=%d: non-positive duration", pt.Algorithm, pt.H)
		}
		if pt.MemBytes <= 0 {
			t.Errorf("%v h=%d: non-positive memory", pt.Algorithm, pt.H)
		}
		if pt.Seeds == 0 {
			t.Errorf("%v h=%d: no seeds", pt.Algorithm, pt.H)
		}
	}
	// Memory grows with h (Table 3's shape): compare h=1 vs h=2 for
	// TI-CARM.
	var mem1, mem2 int64
	for _, pt := range points {
		if pt.Algorithm == AlgTICARM && pt.H == 1 {
			mem1 = pt.MemBytes
		}
		if pt.Algorithm == AlgTICARM && pt.H == 2 {
			mem2 = pt.MemBytes
		}
	}
	if mem2 <= mem1 {
		t.Errorf("memory should grow with h: h=1 %d vs h=2 %d", mem1, mem2)
	}
	rt := RuntimeTable(points, "advertisers")
	if len(rt.Rows) != 4 {
		t.Error("runtime table wrong shape")
	}
	mt := MemoryTable(points)
	if len(mt.Rows) != 4 {
		t.Error("memory table wrong shape")
	}
}

func TestScalabilityBudget(t *testing.T) {
	params := tinyParams()
	points, err := ScalabilityBudget(context.Background(), "dblp", []float64{5_000, 10_000}, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
}

// A scalability run's BenchRun carries the MC-evaluated revenue and the
// seed cost of its allocation, as rmbench -json writes them for fig5a–d
// and table3.
func TestScalabilityBenchRunRevenue(t *testing.T) {
	points, err := ScalabilityBudget(context.Background(), "dblp", []float64{5_000}, tinyParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if run := BenchRunOfScale(pt); run.Revenue <= 0 || run.SeedCost <= 0 {
			t.Errorf("%s budget=%v: BenchRun revenue %v, seed cost %v, want both > 0",
				run.Algorithm, run.Budget, run.Revenue, run.SeedCost)
		}
	}
}

func TestAlphaGridRanges(t *testing.T) {
	cases := []struct {
		ds       string
		kind     incentive.Kind
		lo, hi   float64
		expected int
	}{
		{"flixster", incentive.Linear, 0.1, 0.5, 5},
		{"epinions", incentive.Constant, 6, 10, 5},
		{"flixster", incentive.Sublinear, 1, 5, 5},
		{"epinions", incentive.Superlinear, 0.0006, 0.001, 5},
	}
	for _, c := range cases {
		grid := AlphaGrid(c.ds, c.kind, c.expected)
		if len(grid) != c.expected {
			t.Fatalf("%s/%v: %d points", c.ds, c.kind, len(grid))
		}
		if grid[0] != c.lo || grid[len(grid)-1] != c.hi {
			t.Errorf("%s/%v grid = %v, want [%v..%v]", c.ds, c.kind, grid, c.lo, c.hi)
		}
	}
	if g := AlphaGrid("flixster", incentive.Linear, 1); len(g) != 1 || g[0] != 0.5 {
		t.Errorf("single-point grid = %v", g)
	}
}

func TestWorkbenchProblemSharing(t *testing.T) {
	params := tinyParams()
	w, err := NewWorkbench("epinions", params)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Problem(incentive.Linear, 0.2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// With L=1 all ads share singleton spreads, hence one incentive table.
	for i := 1; i < p.NumAds(); i++ {
		if p.Incentives[i] != p.Incentives[0] {
			t.Error("ads with identical topic distributions should share incentive tables")
		}
	}
	// Workbench budgets are the scaled Table 2 EPINIONS draws [6K,12K]/s.
	for _, ad := range w.Ads {
		if ad.Budget > 12000/float64(params.Scale)+1e-9 ||
			ad.Budget < 6000/float64(params.Scale)-1e-9 {
			t.Errorf("workbench budget %v outside scaled Table 2 range", ad.Budget)
		}
	}
	// Problem budgets may only be floored upward (non-degeneracy), never
	// reduced.
	for i, ad := range p.Ads {
		if ad.Budget < w.Ads[i].Budget-1e-9 {
			t.Errorf("problem budget %v below workbench budget %v", ad.Budget, w.Ads[i].Budget)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.Append("x", 1.5)
	tbl.Append("longer", 2)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") {
		t.Errorf("render output missing content:\n%s", out)
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" || lines[1] != "x,1.5" {
		t.Errorf("CSV output wrong:\n%s", buf.String())
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgTICSRM.String() != "TI-CSRM" || AlgRandom.String() != "Random-RR" {
		t.Error("algorithm names wrong")
	}
}
