package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
)

// mutateConfig isolates the mutate tests on their own DatasetSeed: the
// eval workbench cache is process-global, so mutating an engine other
// suites share would perturb their generations.
func mutateConfig(seed uint64) Config {
	cfg := tinyConfig()
	cfg.DatasetSeed = seed
	return cfg
}

// serverGraph resolves the very graph the server's (dataset, h) engine
// serves, through the same global workbench cache.
func serverGraph(t *testing.T, cfg Config, name string, h int) *graph.Graph {
	t.Helper()
	wb, err := eval.NewWorkbench(name, eval.Params{
		Scale: cfg.Scale, Seed: cfg.DatasetSeed, H: h,
		SampleWorkers: cfg.Workers,
	})
	if err != nil {
		t.Fatalf("workbench: %v", err)
	}
	g, _ := wb.Engine().Current()
	return g
}

// TestMutateGenerationRoundTrip is the wire contract of /v1/mutate: the
// swap bumps the generation echoed by solve responses, carries the
// ShareSamples universe cache, and — because the generation is part of
// the result-cache key even at generation 0 — forces a cache miss on
// the next otherwise-identical solve.
func TestMutateGenerationRoundTrip(t *testing.T) {
	cfg := mutateConfig(91)
	_, ts := newTestServer(t, cfg)

	solveReq := SolveRequest{Dataset: "flixster", H: 4, Mode: "ti-csrm",
		Seed: up(3), Alpha: fp(0.2), Epsilon: 0.3, MaxThetaPerAd: 20000, ShareSamples: true}
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 0 {
		t.Fatalf("pre-mutate solve generation = %d, want 0", sr.Generation)
	}
	if resp.Header.Get("X-RM-Cache") != "miss" {
		t.Fatal("first solve should be a cache miss")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", solveReq)
	if resp.Header.Get("X-RM-Cache") != "hit" {
		t.Fatal("identical re-solve should hit the result cache")
	}

	// Mutate: override the probability of the graph's first arc.
	g := serverGraph(t, cfg, "flixster", 4)
	var mu, mv int32 = -1, -1
	for u := int32(0); u < g.NumNodes(); u++ {
		if nbrs := g.OutNeighbors(u); len(nbrs) > 0 {
			mu, mv = u, nbrs[0]
			break
		}
	}
	if mu < 0 {
		t.Fatal("server graph has no edges")
	}
	resp, body = postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Dataset:  "flixster",
		SetProbs: []MutateProb{{U: mu, V: mv, Topic: 0, P: 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mr MutateResult
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Generation != 1 || mr.TouchedNodes != 1 {
		t.Fatalf("mutate result %+v, want generation 1 touching 1 node", mr)
	}
	if mr.CarriedUniverses == 0 || mr.DroppedUniverses != 0 {
		t.Fatalf("mutate carried %d / dropped %d universes; the idle ShareSamples cache should carry fully",
			mr.CarriedUniverses, mr.DroppedUniverses)
	}

	// The identical solve request must now recompute (new cache key) and
	// echo the new generation.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutate solve: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-RM-Cache") != "miss" {
		t.Fatal("solve after mutate must miss the result cache")
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 {
		t.Fatalf("post-mutate solve generation = %d, want 1", sr.Generation)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", solveReq)
	if resp.Header.Get("X-RM-Cache") != "hit" {
		t.Fatal("re-solve at the new generation should hit the cache")
	}

	// Evaluate responses echo the generation too.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Dataset: "flixster", Seeds: sr.Seeds, Runs: 50, Alpha: fp(0.2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, body)
	}
	var er EvaluateResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Generation != 1 {
		t.Fatalf("evaluate generation = %d, want 1", er.Generation)
	}

	// Metrics export the generation gauge and the swap counters.
	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"rmserved_mutates_total 1",
		`rmserved_graph_generation{dataset="flixster",h="4"} 1`,
		`rmserved_rrsets_invalidated_total{dataset="flixster",h="4"} ` + fmt.Sprint(mr.InvalidatedSets),
		`rmserved_rrsets_repaired_total{dataset="flixster",h="4"} ` + fmt.Sprint(mr.RepairedSets),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMutateRejectsBadRequests(t *testing.T) {
	cfg := mutateConfig(92)
	_, ts := newTestServer(t, cfg)

	// Unknown dataset: 404 with the registry enumerated.
	resp, body := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Dataset: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d %s", resp.StatusCode, body)
	}
	// Missing dataset and out-of-range h: 400.
	resp, _ = postJSON(t, ts.URL+"/v1/mutate", MutateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing dataset: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Dataset: "flixster", H: 10_000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad h: %d", resp.StatusCode)
	}
	// A structurally invalid delta (self-loop) is a 400 and leaves the
	// generation untouched.
	resp, body = postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Dataset: "flixster", AddEdges: []MutateEdge{{U: 1, V: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-loop delta: %d %s", resp.StatusCode, body)
	}
	g := serverGraph(t, cfg, "flixster", cfg.DefaultH)
	if g.Generation() != 0 {
		t.Fatalf("rejected delta advanced the generation to %d", g.Generation())
	}
}

// TestMutateErrorMapping pins the status contract of writeMutateError
// (the 409 production itself is covered in core's swap tests; here the
// mapping is exercised deterministically).
func TestMutateErrorMapping(t *testing.T) {
	s := New(mutateConfig(93))
	t.Cleanup(s.Close)
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("core: %w", core.ErrSwapInProgress), http.StatusConflict},
		{fmt.Errorf("core: %w", graph.ErrBadDelta), http.StatusBadRequest},
		{fmt.Errorf("core: %w: %w", core.ErrCanceled, errors.New("ctx")), http.StatusServiceUnavailable},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.writeMutateError(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("writeMutateError(%v) = %d, want %d", c.err, rec.Code, c.want)
		}
	}
}

// TestMutateDrainingRejected mirrors the solve surface: a draining
// server refuses mutations outright.
func TestMutateDrainingRejected(t *testing.T) {
	s, ts := newTestServer(t, mutateConfig(94))
	if err := s.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Dataset: "flixster"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate while draining: %d, want 503", resp.StatusCode)
	}
}

// repairSeconds scrapes the flixster h=4 engine's
// rmserved_engine_repair_seconds_total from /metrics.
func repairSeconds(t *testing.T, url string) float64 {
	t.Helper()
	_, body := getBody(t, url+"/metrics")
	const prefix = `rmserved_engine_repair_seconds_total{dataset="flixster",h="4"} `
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			secs, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return secs
		}
	}
	t.Fatalf("metrics have no %q line", prefix)
	return 0
}

// TestMutateRepairTiming pins repair_ms against repaired_sets: exactly 0
// when the swap repaired nothing (a mutate before any share_samples
// solve finds no cached universe to carry), positive when it resampled
// sets. The engine's repair-seconds counter in /metrics follows: 0
// before the mutate, positive only after a repair.
func TestMutateRepairTiming(t *testing.T) {
	for i, solveFirst := range []bool{false, true} {
		cfg := mutateConfig(uint64(95 + i))
		_, ts := newTestServer(t, cfg)
		if solveFirst {
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 4, Mode: "ti-csrm",
				Seed: up(3), Alpha: fp(0.2), Epsilon: 0.3, MaxThetaPerAd: 20000, ShareSamples: true})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve: %d %s", resp.StatusCode, body)
			}
			if secs := repairSeconds(t, ts.URL); secs != 0 {
				t.Fatalf("repair seconds %v before any mutate, want 0", secs)
			}
		}

		// Re-weight an arc into the node of highest in-degree, which the
		// cached RR sets are sure to contain.
		g := serverGraph(t, cfg, "flixster", 4)
		hub := int32(0)
		for v := int32(1); v < g.NumNodes(); v++ {
			if g.InDegree(v) > g.InDegree(hub) {
				hub = v
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
			Dataset:  "flixster",
			SetProbs: []MutateProb{{U: g.InNeighbors(hub)[0], V: hub, Topic: 0, P: 0.5}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: %d %s", resp.StatusCode, body)
		}
		var mr MutateResult
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if !solveFirst {
			if mr.CarriedUniverses != 0 || mr.InvalidatedSets != 0 || mr.RepairedSets != 0 || mr.RepairMS != 0 {
				t.Fatalf("mutate with no cached universe: %s; want carried_universes, invalidated_sets, repaired_sets and repair_ms all 0", body)
			}
			if secs := repairSeconds(t, ts.URL); secs != 0 {
				t.Fatalf("repair seconds %v after a swap that repaired nothing, want 0", secs)
			}
			continue
		}
		if mr.InvalidatedSets == 0 {
			t.Fatalf("delta invalidated no sets: %s", body)
		}
		if mr.RepairedSets == 0 || mr.RepairMS <= 0 {
			t.Fatalf("repaired_sets %d, repair_ms %v; want both positive", mr.RepairedSets, mr.RepairMS)
		}
		if secs := repairSeconds(t, ts.URL); secs <= 0 {
			t.Fatalf("repair seconds %v after repairing %d sets, want positive", secs, mr.RepairedSets)
		}
	}
}
