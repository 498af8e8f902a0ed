package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/incentive"
)

// tinyConfig is the shared test configuration: tiny presets, the
// deterministic single-worker sampler, small limits so backpressure is
// reachable.
func tinyConfig() Config {
	return Config{
		Scale:       gen.ScaleTiny,
		DatasetSeed: 1,
		DefaultH:    4,
		Workers:     1,
		// Solves in this suite serialize on the engine's single sampling
		// slot; under -race a burst of them can exceed the production
		// default deadline, so give sessions plenty of room.
		DefaultTimeout: 5 * time.Minute,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// fp and up build the request pointer fields that distinguish an
// explicit zero from an omitted value.
func fp(v float64) *float64 { return &v }
func up(v uint64) *uint64   { return &v }

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func TestHealthAndDatasets(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	resp, body = getBody(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets: %d", resp.StatusCode)
	}
	var dr DatasetsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("datasets body: %v", err)
	}
	want := []string{"dblp", "epinions", "flixster", "livejournal"}
	if !reflect.DeepEqual(dr.Datasets, want) {
		t.Fatalf("datasets = %v, want %v", dr.Datasets, want)
	}
	if dr.Scale != "tiny" || dr.Workers != 1 {
		t.Fatalf("config echo = %+v", dr)
	}
}

// TestSolveBitIdenticalToEngine is the service's core contract: a
// served solve returns exactly what a direct Engine.Solve through the
// same workbench produces — same seeds, same float bits (JSON float64
// round-trips losslessly via the shortest-representation encoder).
func TestSolveBitIdenticalToEngine(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	req := SolveRequest{Dataset: "flixster", H: 4, Mode: "ti-csrm", Seed: up(3), Alpha: fp(0.2), Epsilon: 0.3, MaxThetaPerAd: 20000}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var got SolveResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("solve body: %v", err)
	}

	// The direct path: same workbench parameters the server uses, which
	// (by the global workbench cache) resolves to the very same engine.
	wb, err := eval.NewWorkbench("flixster", eval.Params{
		Scale: gen.ScaleTiny, Seed: 1, H: 4, SampleWorkers: 1,
	})
	if err != nil {
		t.Fatalf("workbench: %v", err)
	}
	p := wb.Problem(incentive.Linear, 0.2)
	alloc, _, err := wb.Engine().Solve(context.Background(), p,
		core.Options{Mode: core.ModeCostSensitive, Seed: 3, Epsilon: 0.3, MaxThetaPerAd: 20000})
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if !reflect.DeepEqual(got.Seeds, alloc.Seeds) {
		t.Errorf("served seeds differ from direct solve:\n  served %v\n  direct %v", got.Seeds, alloc.Seeds)
	}
	if !reflect.DeepEqual(got.Revenue, alloc.Revenue) ||
		!reflect.DeepEqual(got.SeedCost, alloc.SeedCost) ||
		!reflect.DeepEqual(got.Payment, alloc.Payment) {
		t.Errorf("served accounting differs from direct solve")
	}
	if got.TotalRevenue != alloc.TotalRevenue() {
		t.Errorf("served total revenue %v != direct %v", got.TotalRevenue, alloc.TotalRevenue())
	}
}

// TestCacheHitBitIdentical repeats one request and requires the hit to
// replay the miss byte for byte.
func TestCacheHitBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	req := SolveRequest{Dataset: "flixster", Mode: "ti-carm", Seed: up(5), Epsilon: 0.3, MaxThetaPerAd: 20000}
	cold, coldBody := postJSON(t, ts.URL+"/v1/solve", req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", cold.StatusCode, coldBody)
	}
	if h := cold.Header.Get("X-RM-Cache"); h != "miss" {
		t.Fatalf("cold X-RM-Cache = %q, want miss", h)
	}
	warm, warmBody := postJSON(t, ts.URL+"/v1/solve", req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d", warm.StatusCode)
	}
	if h := warm.Header.Get("X-RM-Cache"); h != "hit" {
		t.Fatalf("warm X-RM-Cache = %q, want hit", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("cache hit is not bit-identical to the cold solve:\n cold %s\n warm %s", coldBody, warmBody)
	}
	// A bypassed cache must still compute the same bytes (engine
	// determinism end to end).
	req.NoCache = true
	fresh, freshBody := postJSON(t, ts.URL+"/v1/solve", req)
	if fresh.StatusCode != http.StatusOK {
		t.Fatalf("no_cache solve: %d", fresh.StatusCode)
	}
	var a, b SolveResult
	if err := json.Unmarshal(coldBody, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(freshBody, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.TotalRevenue != b.TotalRevenue {
		t.Fatalf("re-computed solve differs from cached one")
	}
}

// TestConcurrentSolves hammers the server with parallel clients mixing
// repeated (cacheable) and distinct solves plus metrics scrapes — the
// suite CI runs under -race.
func TestConcurrentSolves(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*3)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the clients repeat one request (exercising the result
			// cache under contention), half solve distinct instances.
			req := SolveRequest{Dataset: "flixster", H: 2, Mode: "ti-carm", Seed: up(uint64(1 + i%4)), Epsilon: 0.3, MaxThetaPerAd: 20000}
			resp, body := postJSONErr(ts.URL+"/v1/solve", req)
			if resp == nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: solve failed: %v %s", i, resp, body)
				return
			}
			var got SolveResult
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if got.TotalSeeds == 0 {
				errs <- fmt.Errorf("client %d: empty allocation", i)
			}
			if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Determinism under concurrency: the same request twice more must
	// agree (they are cache hits of bit-identical bodies by now).
	req := SolveRequest{Dataset: "flixster", H: 2, Mode: "ti-carm", Seed: up(1), Epsilon: 0.3, MaxThetaPerAd: 20000}
	_, b1 := postJSON(t, ts.URL+"/v1/solve", req)
	_, b2 := postJSON(t, ts.URL+"/v1/solve", req)
	if !bytes.Equal(b1, b2) {
		t.Fatal("concurrent cache produced non-identical replays")
	}
}

func postJSONErr(url string, body interface{}) (*http.Response, []byte) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestDeadlineExceeded requires a 1ms session to answer 504 carrying
// the partial stats of the canceled solve.
func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	req := SolveRequest{Dataset: "epinions", H: 6, Seed: up(7), TimeoutMS: 1}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("error = %q, want a deadline message", er.Error)
	}
	if er.PartialStats == nil {
		t.Fatal("504 carries no partial stats")
	}
}

// TestUnknownDataset404 requires the 404 body to enumerate the names
// that would have resolved — the same UnknownError surface rmbench
// prints.
func TestUnknownDataset404(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if !strings.Contains(er.Error, `unknown dataset "nope"`) {
		t.Errorf("error = %q", er.Error)
	}
	if len(er.Registered) == 0 || er.Registered[0] != "dblp" {
		t.Errorf("registered = %v, want the registry names", er.Registered)
	}
}

// TestDatasetAllowlist confirms a restricted server 404s names outside
// its allowlist, enumerating only what it serves.
func TestDatasetAllowlist(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"flixster"}
	_, ts := newTestServer(t, cfg)

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "dblp"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(er.Registered, []string{"flixster"}) {
		t.Errorf("registered = %v, want [flixster]", er.Registered)
	}
}

// TestBackpressure429 fills the single admission slot with a blocked
// session and requires the next request to bounce with 429 and a
// Retry-After hint instead of queueing.
func TestBackpressure429(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = -1 // no queue: reject as soon as the slot is taken
	s, ts := newTestServer(t, cfg)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSolveStarted = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}

	blockedDone := make(chan struct{})
	go func() {
		defer close(blockedDone)
		resp, _ := postJSONErr(ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(11), Epsilon: 0.3, MaxThetaPerAd: 20000})
		if resp == nil || resp.StatusCode != http.StatusOK {
			t.Errorf("blocked solve finished with %v", resp)
		}
	}()
	<-started

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(12), Epsilon: 0.3, MaxThetaPerAd: 20000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d", er.RetryAfterSeconds)
	}

	close(release)
	<-blockedDone
}

// TestGracefulDrain holds a session in flight, begins a drain, and
// requires: new sessions refused with 503, readyz flipped, the
// in-flight session completing normally, and Drain returning nil once
// it does.
func TestGracefulDrain(t *testing.T) {
	cfg := tinyConfig()
	s, ts := newTestServer(t, cfg)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSolveStarted = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}

	inflightDone := make(chan struct{})
	var inflightStatus int
	go func() {
		defer close(inflightDone)
		resp, _ := postJSONErr(ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(21), Epsilon: 0.3, MaxThetaPerAd: 20000})
		if resp != nil {
			inflightStatus = resp.StatusCode
		}
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(30 * time.Second) }()

	// Draining must be observable before the in-flight session ends.
	waitUntil(t, time.Second, s.Draining)
	resp, _ := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(22), Epsilon: 0.3, MaxThetaPerAd: 20000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new session during drain = %d, want 503; %s", resp.StatusCode, body)
	}

	close(release)
	<-inflightDone
	if inflightStatus != http.StatusOK {
		t.Errorf("in-flight session finished with %d, want 200 (drain must let it complete)", inflightStatus)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Errorf("drain returned %v after a clean quiesce", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return after the in-flight session completed")
	}
}

// TestDrainDeadlineCancels lets the drain deadline expire while a
// session is stuck and requires Drain to cancel it through the base
// context and still quiesce (with a non-nil error).
func TestDrainDeadlineCancels(t *testing.T) {
	cfg := tinyConfig()
	s, ts := newTestServer(t, cfg)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSolveStarted = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}

	inflightDone := make(chan struct{})
	var inflightStatus int
	go func() {
		defer close(inflightDone)
		resp, _ := postJSONErr(ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(31), Epsilon: 0.3, MaxThetaPerAd: 20000})
		if resp != nil {
			inflightStatus = resp.StatusCode
		}
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(50 * time.Millisecond) }()
	// Once the deadline fires the base context is canceled; release the
	// hook so the session proceeds into the (now canceled) solve.
	waitUntil(t, 5*time.Second, func() bool { return s.BaseContext().Err() != nil })
	close(release)
	<-inflightDone
	if inflightStatus != http.StatusServiceUnavailable {
		t.Errorf("canceled in-flight session finished with %d, want 503", inflightStatus)
	}
	select {
	case err := <-drainDone:
		if err == nil {
			t.Error("drain past its deadline returned nil")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drain never returned")
	}
}

// TestEvaluateEndpoint solves, then scores the returned allocation via
// /v1/evaluate, and requires the scored totals to match a direct
// Engine.Evaluate with the same parameters.
func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", Seed: up(2), Epsilon: 0.3, MaxThetaPerAd: 20000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	evReq := EvaluateRequest{Dataset: "flixster", Seeds: sr.Seeds, Runs: 500, Seed: up(99)}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", evReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, body)
	}
	var er EvaluateResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}

	wb, err := eval.NewWorkbench("flixster", eval.Params{
		Scale: gen.ScaleTiny, Seed: 1, H: 4, SampleWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := wb.Problem(incentive.Linear, 0.2)
	alloc := &core.Allocation{Seeds: sr.Seeds,
		Revenue: make([]float64, 4), SeedCost: make([]float64, 4), Payment: make([]float64, 4)}
	direct, err := wb.Engine().Evaluate(context.Background(), p, alloc, 500, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if er.TotalRevenue != direct.TotalRevenue() {
		t.Errorf("served evaluation %v != direct %v", er.TotalRevenue, direct.TotalRevenue())
	}
	if !reflect.DeepEqual(er.Spread, direct.Spread) {
		t.Errorf("served spreads differ from direct evaluation")
	}

	// Mismatched seed-set count must be a 400, not a panic.
	resp, _ = postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "flixster", Seeds: [][]int32{{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched seeds = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsExposition scrapes /metrics after a solve and checks the
// exposition contains the advertised families with sane values.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	req := SolveRequest{Dataset: "flixster", H: 2, Seed: up(1), Epsilon: 0.3, MaxThetaPerAd: 20000}
	postJSON(t, ts.URL+"/v1/solve", req) // miss
	postJSON(t, ts.URL+"/v1/solve", req) // hit

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := string(body)
	// Server-level counters are exact (fresh Server per test); engine
	// counters are only checked for presence — the engine behind
	// (flixster, h=2) is globally cached and accumulates work across the
	// whole test run.
	for _, want := range []string{
		"rmserved_solves_total 1",
		"rmserved_cache_hits_total 1",
		"rmserved_cache_misses_total 1",
		"rmserved_queue_depth 0",
		"rmserved_draining 0",
		`rmserved_engine_solves_completed_total{dataset="flixster",h="2"} `,
		`rmserved_engine_rr_sets_sampled_total{dataset="flixster",h="2"} `,
		`rmserved_engine_sampler_memory_bytes{dataset="flixster",h="2"}`,
		"rmserved_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every family line must carry HELP/TYPE headers (spot check one).
	if !strings.Contains(text, "# TYPE rmserved_cache_hits_total counter") {
		t.Error("missing TYPE header for cache hits")
	}
}

// TestBadRequests covers the 400 surface: bad JSON, missing dataset,
// unknown fields, out-of-range h, unknown mode and incentive.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
	cases := []SolveRequest{
		{},                            // missing dataset
		{Dataset: "flixster", H: 500}, // h over MaxH
		{Dataset: "flixster", Mode: "magic"},
		{Dataset: "flixster", Incentive: "bribes"},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %+v = %d, want 400", c, resp.StatusCode)
		}
	}
}

// TestWarm pre-builds engines and checks they show up in /v1/datasets.
func TestWarm(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"flixster"}
	s, ts := newTestServer(t, cfg)
	if err := s.Warm(nil, 2); err != nil {
		t.Fatalf("warm: %v", err)
	}
	_, body := getBody(t, ts.URL+"/v1/datasets")
	var dr DatasetsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dr.Warm, []string{"flixster/2"}) {
		t.Errorf("warm = %v", dr.Warm)
	}
	if err := s.Warm([]string{"nope"}, 2); err == nil {
		t.Error("warming an unknown dataset succeeded")
	}
}

// TestEvaluateSeedOutOfRange posts seed node ids outside the graph —
// including the int32 extremes — and requires a 400, never a panic in a
// simulation goroutine (which would kill the whole process).
func TestEvaluateSeedOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	for _, seeds := range [][][]int32{
		{{2147483647}},
		{{-1}},
		{{0, 1 << 30}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
			Dataset: "flixster", H: 1, Seeds: seeds})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seeds %v = %d, want 400; body %s", seeds, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Error, "out of range") {
			t.Errorf("seeds %v error = %q, want an out-of-range message", seeds, er.Error)
		}
	}
	// The server must still be alive and solving after the attempts.
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad evaluates: %d %s", resp.StatusCode, body)
	}
}

// TestEvaluateWorkersCapped bounds the per-request simulation
// parallelism: a request asking for thousands of workers is a 400, not
// thousands of simulator goroutines.
func TestEvaluateWorkersCapped(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig())

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Dataset: "flixster", H: 1, Seeds: [][]int32{{0}}, Workers: 25000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=25000 = %d, want 400; body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, fmt.Sprintf("[1, %d]", s.Config().MaxEvalWorkers)) {
		t.Errorf("error = %q, want the configured cap", er.Error)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Dataset: "flixster", H: 1, Seeds: [][]int32{{0}}, Workers: -3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("workers=-3 = %d, want 400", resp.StatusCode)
	}
}

// TestEvaluateWorkersShareCacheEntry: workers sets only how many
// goroutines run the cascades, so two evaluations differing only in
// workers are one cache entry, and a recomputation at a third worker
// count returns the same bytes.
func TestEvaluateWorkersShareCacheEntry(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxEvalWorkers = 3
	_, ts := newTestServer(t, cfg)

	req := EvaluateRequest{Dataset: "flixster", H: 2, Seeds: [][]int32{{0, 3}, {5}}, Runs: 300, Seed: up(4), Workers: 1}
	resp, first := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate workers=1: %d %s", resp.StatusCode, first)
	}
	if h := resp.Header.Get("X-RM-Cache"); h != "miss" {
		t.Errorf("workers=1 X-RM-Cache = %q, want miss", h)
	}
	req.Workers = 2
	resp, second := postJSON(t, ts.URL+"/v1/evaluate", req)
	if h := resp.Header.Get("X-RM-Cache"); h != "hit" {
		t.Errorf("workers=2 X-RM-Cache = %q, want hit", h)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("workers=2 body differs:\n%s\n%s", first, second)
	}
	req.Workers, req.NoCache = 3, true
	resp, third := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate workers=3: %d %s", resp.StatusCode, third)
	}
	if h := resp.Header.Get("X-RM-Cache"); h != "miss" {
		t.Errorf("workers=3 no_cache X-RM-Cache = %q, want miss", h)
	}
	if !bytes.Equal(first, third) {
		t.Errorf("recomputed workers=3 body differs:\n%s\n%s", first, third)
	}
}

// TestZeroAndOmittedParams pins the zero-vs-omitted contract: omitted
// alpha/seed/epsilon normalize to the documented defaults before cache
// keying (explicit defaults hit the same entry), while explicit zeros
// are honored as real values.
func TestZeroAndOmittedParams(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	// Omitted alpha, seed, epsilon…
	omitted := SolveRequest{Dataset: "flixster", H: 2, MaxThetaPerAd: 20000}
	cold, coldBody := postJSON(t, ts.URL+"/v1/solve", omitted)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("solve with omitted params: %d %s", cold.StatusCode, coldBody)
	}
	// …and the same request with every default spelled out must be the
	// same cache entry, byte for byte.
	explicit := SolveRequest{Dataset: "flixster", H: 2, MaxThetaPerAd: 20000,
		Alpha: fp(0.2), Seed: up(1), Epsilon: core.DefaultEpsilon}
	warm, warmBody := postJSON(t, ts.URL+"/v1/solve", explicit)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("solve with explicit defaults: %d %s", warm.StatusCode, warmBody)
	}
	if h := warm.Header.Get("X-RM-Cache"); h != "hit" {
		t.Errorf("explicit defaults X-RM-Cache = %q, want hit (same key as omitted)", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("explicit-default response differs from omitted-default response")
	}

	// Seed 0 is a legitimate RNG seed, not a sentinel: it must solve and
	// echo back exactly.
	zero := SolveRequest{Dataset: "flixster", H: 2, MaxThetaPerAd: 20000,
		Epsilon: 0.3, Seed: up(0)}
	resp, body := postJSON(t, ts.URL+"/v1/solve", zero)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with zero seed: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-RM-Cache"); h != "miss" {
		t.Errorf("zero seed X-RM-Cache = %q, want miss (distinct key)", h)
	}
	var sr SolveResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seed != 0 {
		t.Errorf("echoed seed=%d, want the explicit zero", sr.Seed)
	}

	// α must be a positive finite number (the incentive layer's
	// contract); an explicit zero or negative is a clean 400, never the
	// silent 0.2 rewrite — and never the incentive.Build panic.
	for _, a := range []float64{0, -1} {
		resp, body := postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Dataset: "flixster", H: 2, Alpha: fp(a)})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("alpha=%v = %d, want 400; body %s", a, resp.StatusCode, body)
		}
		resp, _ = postJSON(t, ts.URL+"/v1/evaluate",
			EvaluateRequest{Dataset: "flixster", H: 1, Seeds: [][]int32{{0}}, Alpha: fp(a)})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("evaluate alpha=%v = %d, want 400", a, resp.StatusCode)
		}
	}
}

// TestClientDisconnectWhileQueued cancels a queued request client-side
// and requires the abort to land in the client-disconnect counter, not
// the deadline-exceeded one (and not as a 504).
func TestClientDisconnectWhileQueued(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 8
	s, ts := newTestServer(t, cfg)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSolveStarted = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}

	blockedDone := make(chan struct{})
	go func() {
		defer close(blockedDone)
		postJSONErr(ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", H: 2, Seed: up(41), Epsilon: 0.3, MaxThetaPerAd: 20000})
	}()
	<-started

	// Queue a second session, then hang up on it.
	raw, _ := json.Marshal(SolveRequest{Dataset: "flixster", H: 2, Seed: up(42), Epsilon: 0.3, MaxThetaPerAd: 20000})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Error("canceled request returned a response")
		}
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.adm.queueDepth() == 1 })
	cancel()
	<-clientDone

	waitUntil(t, 5*time.Second, func() bool { return s.met.clientDisconnects.Load() == 1 })
	if got := s.met.deadlineExceeded.Load(); got != 0 {
		t.Errorf("deadline_exceeded = %d after a client abort, want 0", got)
	}
	close(release)
	<-blockedDone
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestAlgorithmsEndpoint checks GET /v1/algorithms mirrors the core
// registry exactly: every registered mode, in order, with its flags.
func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, body := getBody(t, ts.URL+"/v1/algorithms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("algorithms: %d %s", resp.StatusCode, body)
	}
	var ar AlgorithmsResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("algorithms body: %v", err)
	}
	if ar.Default != core.DefaultModeName {
		t.Errorf("default = %q, want %q", ar.Default, core.DefaultModeName)
	}
	algos := core.Algorithms()
	if len(ar.Algorithms) != len(algos) {
		t.Fatalf("%d algorithms served, registry has %d", len(ar.Algorithms), len(algos))
	}
	for i, a := range ar.Algorithms {
		info := algos[i]
		if a.Name != info.Name || a.Display != info.Display {
			t.Errorf("entry %d = %s/%s, want %s/%s", i, a.Name, a.Display, info.Name, info.Display)
		}
		if a.NeedsPageRank != info.NeedsPRScores || a.CostSensitive != info.CostSensitive ||
			a.OnePass != info.OnePass || a.RoundRobin != info.RoundRobin {
			t.Errorf("%s: capability flags drifted from the registry", a.Name)
		}
	}
}

// TestSolveModeCanonicalization: a display-spelled mode ("HC-CSRM")
// solves, is canonicalized in the response, and shares one cache entry
// with the canonical spelling — the cache-key-covers-mode contract.
func TestSolveModeCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	req := SolveRequest{Dataset: "flixster", H: 2, Mode: "HC-CSRM", Seed: up(7), Epsilon: 0.3, MaxThetaPerAd: 20000}
	cold, coldBody := postJSON(t, ts.URL+"/v1/solve", req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("display-spelled solve: %d %s", cold.StatusCode, coldBody)
	}
	var res SolveResult
	if err := json.Unmarshal(coldBody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Mode != "hc-csrm" {
		t.Errorf("response mode = %q, want canonical hc-csrm", res.Mode)
	}
	if res.TotalSeeds == 0 {
		t.Error("hc-csrm allocated no seeds")
	}
	req.Mode = "hc-csrm"
	warm, warmBody := postJSON(t, ts.URL+"/v1/solve", req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("canonical solve: %d", warm.StatusCode)
	}
	if h := warm.Header.Get("X-RM-Cache"); h != "hit" {
		t.Errorf("canonical spelling missed the display-spelled entry (X-RM-Cache=%q)", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("canonical-spelling hit is not bit-identical")
	}

	// A different mode with otherwise identical parameters must miss:
	// the mode is part of the key.
	req.Mode = "ti-csrm"
	other, otherBody := postJSON(t, ts.URL+"/v1/solve", req)
	if other.StatusCode != http.StatusOK {
		t.Fatalf("ti-csrm solve: %d", other.StatusCode)
	}
	if h := other.Header.Get("X-RM-Cache"); h != "miss" {
		t.Errorf("different mode replayed another mode's cache entry (X-RM-Cache=%q)", h)
	}
	var otherRes SolveResult
	if err := json.Unmarshal(otherBody, &otherRes); err != nil {
		t.Fatal(err)
	}
	if otherRes.Mode != "ti-csrm" {
		t.Errorf("response mode = %q, want ti-csrm", otherRes.Mode)
	}
}

// TestUnknownMode400ListsNames: the 400 for an unregistered mode
// enumerates every valid name in the Modes field.
func TestUnknownMode400ListsNames(t *testing.T) {
	_, ts := newTestServer(t, tinyConfig())

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Dataset: "flixster", Mode: "celf"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode = %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(er.Modes, core.ModeNames()) {
		t.Errorf("modes = %v, want %v", er.Modes, core.ModeNames())
	}
	if !strings.Contains(er.Error, "celf") {
		t.Errorf("error %q does not name the rejected mode", er.Error)
	}
}
