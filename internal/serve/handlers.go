package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/incentive"
)

// maxBodyBytes bounds request bodies; an evaluate request carrying tens
// of thousands of seed ids fits comfortably.
const maxBodyBytes = 8 << 20

// SolveRequest is the body of POST /v1/solve. Dataset is required;
// everything else defaults to the server config or the engine defaults.
type SolveRequest struct {
	Dataset string `json:"dataset"`
	// H is the advertiser count (default Config.DefaultH, capped at
	// Config.MaxH).
	H int `json:"h,omitempty"`
	// Incentive is the incentive model: linear (default), constant,
	// sublinear, superlinear.
	Incentive string `json:"incentive,omitempty"`
	// Alpha is the incentive scale α, which the incentive models require
	// to be a positive finite number. A pointer so that an omitted field
	// (default 0.2) is distinguishable from an explicit out-of-range
	// value, which is rejected with a 400 instead of silently rewritten.
	Alpha *float64 `json:"alpha,omitempty"`
	// Mode is the algorithm's canonical registry name (default
	// core.DefaultModeName); GET /v1/algorithms enumerates the choices.
	// Display spellings ("TI-CSRM") are accepted and canonicalized, so
	// both share one result-cache entry.
	Mode string `json:"mode,omitempty"`
	// Epsilon is the RR estimation accuracy ε. Zero is the engine's
	// own "use the default" sentinel (core.DefaultEpsilon = 0.1) — the
	// handler normalizes it before cache keying, so omitting ε and
	// requesting 0.1 explicitly are the same request.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Window is TI-CSRM's window size (0 = full).
	Window int `json:"window,omitempty"`
	// Seed drives all sampling. A pointer so that an explicit seed 0 is
	// distinguishable from an omitted field (which defaults to 1); with
	// the server's fixed worker configuration it pins the result
	// bit-for-bit.
	Seed *uint64 `json:"seed,omitempty"`
	// MaxThetaPerAd caps RR samples per ad (0 = engine default).
	MaxThetaPerAd int `json:"max_theta_per_ad,omitempty"`
	// ShareSamples shares RR universes across same-topic ads and enables
	// the engine's cross-solve universe cache.
	ShareSamples bool `json:"share_samples,omitempty"`
	// TimeoutMS bounds the session (default Config.DefaultTimeout,
	// capped at Config.MaxTimeout). A session that exceeds it returns
	// 504 with the partial stats.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (it is still
	// computed and stored for future hits).
	NoCache bool `json:"no_cache,omitempty"`
}

// EvaluateRequest is the body of POST /v1/evaluate: an allocation to
// score with fresh Monte-Carlo cascades on a dataset's instance. The
// instance coordinates (dataset, h, incentive, alpha) must match the
// solve that produced the seeds for the seed-cost accounting to align.
type EvaluateRequest struct {
	Dataset   string `json:"dataset"`
	H         int    `json:"h,omitempty"`
	Incentive string `json:"incentive,omitempty"`
	// Alpha is the incentive scale α (pointer: omitted defaults to 0.2,
	// an explicit non-positive value is a 400).
	Alpha *float64  `json:"alpha,omitempty"`
	Seeds [][]int32 `json:"seeds"`
	// Runs is the number of Monte-Carlo cascades (default 2000, capped
	// at Config.MaxEvalRuns).
	Runs int `json:"runs,omitempty"`
	// Workers is the number of simulation goroutines (default 2, capped
	// at Config.MaxEvalWorkers). It sets speed only: every cascade draws
	// from its own per-run seed, so any value returns the same answer
	// and shares one result-cache entry.
	Workers int `json:"workers,omitempty"`
	// Seed drives the evaluation cascades (pointer: explicit 0 is
	// honored, omitted defaults to 1^0xabcdef as in the CLIs).
	Seed      *uint64 `json:"seed,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	NoCache   bool    `json:"no_cache,omitempty"`
}

// SolveStats mirrors core.Stats for JSON transport.
type SolveStats struct {
	DurationMS         float64 `json:"duration_ms"`
	Theta              []int   `json:"theta,omitempty"`
	SeedCounts         []int   `json:"seed_counts,omitempty"`
	GrowthEvents       int     `json:"growth_events"`
	PrunedPairs        int64   `json:"pruned_pairs"`
	TotalRRSets        int64   `json:"total_rr_sets"`
	RRMemoryBytes      int64   `json:"rr_memory_bytes"`
	SamplerMemoryBytes int64   `json:"sampler_memory_bytes"`
	SampleWorkers      int     `json:"sample_workers"`
	ShareGroups        int     `json:"share_groups"`
}

func statsJSON(st *core.Stats) *SolveStats {
	if st == nil {
		return nil
	}
	return &SolveStats{
		DurationMS:         float64(st.Duration) / float64(time.Millisecond),
		Theta:              st.Theta,
		SeedCounts:         st.SeedCounts,
		GrowthEvents:       st.GrowthEvents,
		PrunedPairs:        st.PrunedPairs,
		TotalRRSets:        st.TotalRRSets,
		RRMemoryBytes:      st.RRMemoryBytes,
		SamplerMemoryBytes: st.SamplerMemoryBytes,
		SampleWorkers:      st.SampleWorkers,
		ShareGroups:        st.ShareGroups,
	}
}

// SolveResult is the body of a successful POST /v1/solve: the
// allocation with the algorithm's own accounting plus the run stats.
type SolveResult struct {
	Dataset   string  `json:"dataset"`
	Scale     string  `json:"scale"`
	H         int     `json:"h"`
	Incentive string  `json:"incentive"`
	Alpha     float64 `json:"alpha"`
	Mode      string  `json:"mode"`
	Seed      uint64  `json:"seed"`
	// Generation is the graph generation the session ran on (0 until the
	// dataset's first /v1/mutate). It is part of the result-cache key, so
	// a cached response never crosses a generation boundary.
	Generation uint64 `json:"generation"`

	Seeds        [][]int32   `json:"seeds"`
	Revenue      []float64   `json:"revenue"`
	SeedCost     []float64   `json:"seed_cost"`
	Payment      []float64   `json:"payment"`
	TotalRevenue float64     `json:"total_revenue"`
	TotalSeeds   int         `json:"total_seeds"`
	Stats        *SolveStats `json:"stats"`
}

// EvaluateResult is the body of a successful POST /v1/evaluate.
type EvaluateResult struct {
	Dataset string `json:"dataset"`
	Runs    int    `json:"runs"`
	Seed    uint64 `json:"seed"`
	// Generation is the graph generation the evaluation ran on.
	Generation uint64 `json:"generation"`

	Spread       []float64 `json:"spread"`
	Revenue      []float64 `json:"revenue"`
	SeedCost     []float64 `json:"seed_cost"`
	Payment      []float64 `json:"payment"`
	TotalRevenue float64   `json:"total_revenue"`
	TotalCost    float64   `json:"total_seed_cost"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Registered lists the dataset names that would have resolved (404
	// unknown-dataset answers only).
	Registered []string `json:"registered,omitempty"`
	// Modes lists the algorithm names that would have resolved (400
	// unknown-mode answers only).
	Modes []string `json:"modes,omitempty"`
	// RetryAfterSeconds echoes the Retry-After header (429 answers).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// PartialStats carries the work done before a deadline or drain
	// canceled the session (504/503 answers from a started session).
	PartialStats *SolveStats `json:"partial_stats,omitempty"`
}

// DatasetsResponse is the body of GET /v1/datasets.
type DatasetsResponse struct {
	// Datasets are the names this server resolves.
	Datasets []string `json:"datasets"`
	Scale    string   `json:"scale"`
	Seed     uint64   `json:"dataset_seed"`
	Workers  int      `json:"workers"`
	DefaultH int      `json:"default_h"`
	// Warm lists the engines already built, as "dataset/h".
	Warm []string `json:"warm,omitempty"`
}

// datasetNames returns the process-wide registry's names.
func datasetNames() []string { return dataset.Default.Names() }

// AlgorithmJSON is one registry entry in GET /v1/algorithms: identity,
// provenance, and the capability flags clients dispatch on.
type AlgorithmJSON struct {
	Name           string `json:"name"`
	Display        string `json:"display"`
	Paper          string `json:"paper"`
	Guarantee      string `json:"guarantee,omitempty"`
	Description    string `json:"description"`
	CostSensitive  bool   `json:"cost_sensitive"`
	NeedsPageRank  bool   `json:"needs_pagerank"`
	OnePass        bool   `json:"one_pass"`
	RoundRobin     bool   `json:"round_robin"`
	SupportsWindow bool   `json:"supports_window"`
}

// AlgorithmsResponse is the body of GET /v1/algorithms.
type AlgorithmsResponse struct {
	Algorithms []AlgorithmJSON `json:"algorithms"`
	// Default is the mode a /v1/solve without "mode" runs.
	Default string `json:"default"`
}

// errDatasetNotServed is the allowlist miss: structurally the same
// *dataset.UnknownError the registry raises, but enumerating only the
// names this server agreed to serve.
func errDatasetNotServed(name string, served []string) error {
	return &dataset.UnknownError{Name: name, Registered: served}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is drain-aware liveness: load balancers stop routing to
// a draining instance while /healthz keeps answering 200 so the
// orchestrator does not kill it mid-drain.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.gate.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	resp := DatasetsResponse{
		Datasets: s.servedNames(),
		Scale:    s.cfg.Scale.String(),
		Seed:     s.cfg.DatasetSeed,
		Workers:  s.cfg.Workers,
		DefaultH: s.cfg.DefaultH,
	}
	for _, k := range s.warmKeys() {
		resp.Warm = append(resp.Warm, fmt.Sprintf("%s/%d", k.name, k.h))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAlgorithms serves the core algorithm registry: every mode
// /v1/solve accepts, with its capability flags, straight from
// core.Algorithms() so the API can never drift from the engine.
func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	resp := AlgorithmsResponse{Default: core.DefaultModeName}
	for _, info := range core.Algorithms() {
		resp.Algorithms = append(resp.Algorithms, AlgorithmJSON{
			Name:           info.Name,
			Display:        info.Display,
			Paper:          info.Paper,
			Guarantee:      info.Guarantee,
			Description:    info.Description,
			CostSensitive:  info.CostSensitive,
			NeedsPageRank:  info.NeedsPRScores,
			OnePass:        info.OnePass,
			RoundRobin:     info.RoundRobin,
			SupportsWindow: info.SupportsWindow,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal: response marshal failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError answers with an ErrorResponse, counting it in the
// request-error metric for statuses the dedicated counters don't cover.
func (s *Server) writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusConflict, statusClientClosedRequest:
	default:
		s.met.requestErrors.Add(1)
	}
	writeJSON(w, status, resp)
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// sessionContext derives the per-request solve context: the client's
// request context bounded by the request timeout (capped by config) and
// additionally canceled by the server's base context, so a drain
// deadline or Close aborts in-flight sessions that outlive their
// client. Returns the context, its deadline, and a release func.
func (s *Server) sessionContext(r *http.Request, timeoutMS int64) (context.Context, time.Duration, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, timeout, func() { stop(); cancel() }
}

// resolveKind parses the incentive model name (default linear).
func resolveKind(name string) (incentive.Kind, error) {
	if name == "" {
		return incentive.Linear, nil
	}
	return incentive.ParseKind(name)
}

// resolveAlpha resolves the incentive scale (default 0.2 when omitted).
// The incentive layer's contract is a strictly positive finite α — it
// panics otherwise — so a request outside that range is a 400, not a
// crashed handler.
func resolveAlpha(a *float64) (float64, error) {
	if a == nil {
		return 0.2, nil
	}
	alpha := *a
	if !(alpha > 0) || math.IsInf(alpha, 0) {
		return 0, fmt.Errorf("alpha=%v out of range (must be a positive finite number)", alpha)
	}
	return alpha, nil
}

func (s *Server) resolveH(h int) (int, error) {
	if h == 0 {
		return s.cfg.DefaultH, nil
	}
	if h < 1 || h > s.cfg.MaxH {
		return 0, fmt.Errorf("h=%d out of range [1, %d]", h, s.cfg.MaxH)
	}
	return h, nil
}

// handleSolve runs one allocation session: admission → warm workbench →
// result cache → engine solve → cache fill. See the package comment for
// the status-code contract.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.gate.enter() {
		s.met.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	defer s.gate.exit()

	var req SolveRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if req.Dataset == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "dataset is required"})
		return
	}
	kind, err := resolveKind(req.Incentive)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	h, err := s.resolveH(req.H)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	alpha, err := resolveAlpha(req.Alpha)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Mode == "" {
		req.Mode = core.DefaultModeName
	}
	// ε=0 is core's "engine default" sentinel; pin it here so an omitted
	// ε and an explicit default produce the same cache key.
	if req.Epsilon == 0 {
		req.Epsilon = core.DefaultEpsilon
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: err.Error(), Modes: core.ModeNames()})
		return
	}
	info, _ := core.ModeInfo(mode)
	// Canonicalize before cache keying: "TI-CSRM" and "ti-csrm" are the
	// same request and must share one cache entry.
	req.Mode = info.Name

	wb, err := s.workbench(req.Dataset, h)
	if err != nil {
		s.writeDatasetError(w, err)
		return
	}
	p := wb.Problem(kind, alpha)
	opt := core.Options{
		Epsilon:       req.Epsilon,
		Window:        req.Window,
		Seed:          seed,
		MaxThetaPerAd: req.MaxThetaPerAd,
		ShareSamples:  req.ShareSamples,
	}
	key := solveCacheKey("solve", s.cfg.Scale, s.cfg.DatasetSeed, req.Dataset,
		h, kind, alpha, p, req.Mode, opt)
	if !req.NoCache {
		if body, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			replayCached(w, body)
			return
		}
		s.met.cacheMisses.Add(1)
	}

	ctx, timeout, release := s.sessionContext(r, req.TimeoutMS)
	defer release()
	if err := s.adm.acquire(ctx); err != nil {
		s.rejectAdmission(w, err, timeout)
		return
	}
	defer s.adm.release()
	if s.testHookSolveStarted != nil {
		s.testHookSolveStarted()
	}
	s.met.solves.Add(1)

	eng := wb.Engine()
	opt.Mode = mode
	if info.NeedsPRScores {
		opt.PRScores = baseline.ScoresForProblem(p, baseline.PageRankOptions{})
	}
	alloc, stats, err := eng.Solve(ctx, p, opt)
	if err != nil {
		s.writeSessionError(ctx, w, err, stats)
		return
	}

	result := SolveResult{
		Dataset:      req.Dataset,
		Scale:        s.cfg.Scale.String(),
		H:            h,
		Incentive:    kind.String(),
		Alpha:        alpha,
		Mode:         req.Mode,
		Seed:         seed,
		Generation:   stats.Generation,
		Seeds:        alloc.Seeds,
		Revenue:      alloc.Revenue,
		SeedCost:     alloc.SeedCost,
		Payment:      alloc.Payment,
		TotalRevenue: alloc.TotalRevenue(),
		TotalSeeds:   alloc.NumSeeds(),
		Stats:        statsJSON(stats),
	}
	s.finishSession(w, key, result)
}

// handleEvaluate scores a client-supplied allocation with fresh
// Monte-Carlo cascades on the named dataset's instance.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !s.gate.enter() {
		s.met.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	defer s.gate.exit()

	var req EvaluateRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if req.Dataset == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "dataset is required"})
		return
	}
	kind, err := resolveKind(req.Incentive)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	h, err := s.resolveH(req.H)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	alpha, err := resolveAlpha(req.Alpha)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	seed := uint64(1 ^ 0xabcdef)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if len(req.Seeds) != h {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("seeds has %d seed sets, h=%d", len(req.Seeds), h)})
		return
	}
	if req.Runs == 0 {
		req.Runs = 2000
	}
	if req.Runs < 1 || req.Runs > s.cfg.MaxEvalRuns {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("runs=%d out of range [1, %d]", req.Runs, s.cfg.MaxEvalRuns)})
		return
	}
	if req.Workers == 0 {
		req.Workers = 2
	}
	// Each worker is a goroutine with its own O(NumNodes) simulator;
	// reject amplification instead of spawning runs/4 of them.
	if req.Workers < 1 || req.Workers > s.cfg.MaxEvalWorkers {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("workers=%d out of range [1, %d]", req.Workers, s.cfg.MaxEvalWorkers)})
		return
	}

	wb, err := s.workbench(req.Dataset, h)
	if err != nil {
		s.writeDatasetError(w, err)
		return
	}
	// Client-supplied seed ids index per-node arrays inside the cascade
	// workers; reject out-of-range ids with a 400 before they reach a
	// goroutine that would panic past the handler's recover.
	n := wb.Dataset.Graph.NumNodes()
	for i, set := range req.Seeds {
		for _, u := range set {
			if u < 0 || u >= n {
				s.writeError(w, http.StatusBadRequest, ErrorResponse{
					Error: fmt.Sprintf("seeds[%d] contains node %d out of range [0, %d)", i, u, n)})
				return
			}
		}
	}
	p := wb.Problem(kind, alpha)
	key := evalCacheKey(s.cfg.Scale, s.cfg.DatasetSeed, req.Dataset, h, kind,
		alpha, p, req.Seeds, req.Runs, seed)
	if !req.NoCache {
		if body, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			replayCached(w, body)
			return
		}
		s.met.cacheMisses.Add(1)
	}

	ctx, timeout, release := s.sessionContext(r, req.TimeoutMS)
	defer release()
	if err := s.adm.acquire(ctx); err != nil {
		s.rejectAdmission(w, err, timeout)
		return
	}
	defer s.adm.release()
	if s.testHookSolveStarted != nil {
		s.testHookSolveStarted()
	}
	s.met.evaluates.Add(1)

	alloc := &core.Allocation{
		Seeds:    req.Seeds,
		Revenue:  make([]float64, h),
		SeedCost: make([]float64, h),
		Payment:  make([]float64, h),
	}
	ev, err := wb.Engine().Evaluate(ctx, p, alloc, req.Runs, req.Workers, seed)
	if err != nil {
		s.writeSessionError(ctx, w, err, nil)
		return
	}
	result := EvaluateResult{
		Dataset:      req.Dataset,
		Runs:         req.Runs,
		Seed:         seed,
		Generation:   p.Graph.Generation(),
		Spread:       ev.Spread,
		Revenue:      ev.Revenue,
		SeedCost:     ev.SeedCost,
		Payment:      ev.Payment,
		TotalRevenue: ev.TotalRevenue(),
		TotalCost:    ev.TotalSeedCost(),
	}
	s.finishSession(w, key, result)
}

// finishSession marshals the successful result once, stores the exact
// bytes in the result cache, and writes them with X-RM-Cache: miss —
// future hits replay the same bytes, so hit and miss bodies are
// bit-identical by construction.
func (s *Server) finishSession(w http.ResponseWriter, key string, result interface{}) {
	body, err := json.Marshal(result)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: "internal: response marshal failed"})
		return
	}
	body = append(body, '\n')
	s.cache.put(key, body)
	s.met.sessionsCompleted.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-RM-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func replayCached(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-RM-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeDatasetError maps workbench-construction failures: unknown or
// not-served dataset names answer 404 enumerating what would resolve
// (the same *dataset.UnknownError surface rmbench reports), anything
// else is a 500.
func (s *Server) writeDatasetError(w http.ResponseWriter, err error) {
	var unknown *dataset.UnknownError
	if errors.As(err, &unknown) {
		s.writeError(w, http.StatusNotFound, ErrorResponse{
			Error:      unknown.Error(),
			Registered: unknown.Registered,
		})
		return
	}
	s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
}

// statusClientClosedRequest is nginx's conventional status for a client
// that went away before the server answered; nobody receives the body,
// but the code keeps access logs and the writeError accounting coherent.
const statusClientClosedRequest = 499

// rejectAdmission maps admission failures: a full queue answers 429
// with a Retry-After hint, a deadline that fired while queued answers
// 504, a drain-canceled wait answers 503, and a client that hung up
// while queued is counted apart (it is not a server timeout).
func (s *Server) rejectAdmission(w http.ResponseWriter, err error, timeout time.Duration) {
	if errors.Is(err, errBusy) {
		s.met.rejectedBusy.Add(1)
		retry := 1 + int(s.adm.queueDepth())
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		s.writeError(w, http.StatusTooManyRequests, ErrorResponse{
			Error:             "server at capacity: session queue is full",
			RetryAfterSeconds: retry,
		})
		return
	}
	if s.baseCtx.Err() != nil {
		s.met.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	if errors.Is(err, context.Canceled) {
		s.met.clientDisconnects.Add(1)
		s.writeError(w, statusClientClosedRequest, ErrorResponse{Error: "client closed request while queued"})
		return
	}
	s.met.deadlineExceeded.Add(1)
	s.writeError(w, http.StatusGatewayTimeout, ErrorResponse{
		Error: fmt.Sprintf("request deadline (%v) exceeded while queued", timeout),
	})
}

// writeSessionError maps engine failures from a started session.
// Deadline-driven cancellation answers 504 with whatever partial stats
// the engine returned; drain-driven cancellation answers 503; a client
// that hung up mid-session is counted apart from deadlines; invalid
// problems answer 400; the rest 500. ctx is the session context, used
// to tell which of the three cancellation causes fired.
func (s *Server) writeSessionError(ctx context.Context, w http.ResponseWriter, err error, stats *core.Stats) {
	switch {
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded):
		if s.baseCtx.Err() != nil {
			s.met.rejectedDraining.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{
				Error:        "session canceled: server is draining",
				PartialStats: statsJSON(stats),
			})
			return
		}
		// The session context expires as DeadlineExceeded on a real
		// timeout; plain Canceled (absent a drain) means the client went
		// away — not a server timeout, so keep the 504 metric honest.
		if errors.Is(ctx.Err(), context.Canceled) {
			s.met.clientDisconnects.Add(1)
			s.writeError(w, statusClientClosedRequest, ErrorResponse{
				Error:        "client closed request mid-session",
				PartialStats: statsJSON(stats),
			})
			return
		}
		s.met.deadlineExceeded.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, ErrorResponse{
			Error:        fmt.Sprintf("session deadline exceeded: %v", err),
			PartialStats: statsJSON(stats),
		})
	case errors.Is(err, core.ErrInvalidProblem):
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	default:
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}
