// Package serve is the repository's serving layer: a long-running HTTP
// solver service over the core.Engine substrate. One Server holds a pool
// of warm engines — one per (registry dataset, advertiser count), built
// lazily through eval.NewWorkbench and therefore snapshot-backed when
// the dataset name resolves to a registered snapshot file — and serves
// concurrent solve/evaluate sessions against them:
//
//   - POST /v1/solve     one allocation session (mode, ε, seed, window …
//     are request parameters; the per-request deadline is threaded into
//     the ctx-aware Engine.Solve);
//   - POST /v1/evaluate  independent Monte-Carlo scoring of an allocation;
//   - POST /v1/mutate    one batched graph delta against a (dataset, h)
//     engine: the graph generation swaps atomically, in-flight sessions
//     finish on their pinned generation, and a concurrent swap answers
//     409;
//   - GET  /v1/datasets  the registry names this server resolves, with
//     warm-engine state;
//   - GET  /v1/algorithms  the core algorithm registry: every mode
//     /v1/solve accepts, with capability flags;
//   - GET  /healthz /readyz /metrics  liveness, drain-aware readiness,
//     and Prometheus-text metrics.
//
// Three properties make it a service rather than a CLI in a loop:
//
// Admission. Solve sessions pass a bounded queue (Config.MaxConcurrent
// running, Config.MaxQueue waiting); beyond that the server answers 429
// with a Retry-After header instead of stacking unbounded goroutines.
//
// Result cache. Successful responses are cached keyed on the full solve
// identity — dataset coordinates, every ad's normalized topic
// distribution (core.GammaKey), CPEs and budgets, the graph generation,
// and all output-affecting options (mode, ε, seed, window …; never a
// workers count, which changes only speed).
// The engine is deterministic for a fixed key, so a hit replays the
// stored bytes and is bit-identical to re-solving cold; a /v1/mutate
// bumps the generation, so no cached response crosses it.
//
// Graceful drain. Drain stops admission (readyz flips to 503, sessions
// get 503 instead of queueing), waits for in-flight sessions up to a
// deadline, then cancels the stragglers through the base context — the
// SIGTERM path of cmd/rmserved.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/wal"
)

// Config fixes the server-wide resources and limits. Per-request knobs
// (mode, seed, ε, deadline …) arrive in the request body instead.
type Config struct {
	// Scale is the synthetic-preset scale every dataset on this server is
	// built at (snapshot-backed entries are one frozen scale and ignore
	// it). Default ScaleSmall.
	Scale gen.Scale
	// DatasetSeed drives dataset synthesis and advertiser drawing — fixed
	// per server so that a dataset name means one concrete instance for
	// the server's lifetime (and so cache keys are stable). Default 1.
	DatasetSeed uint64
	// Datasets restricts the server to these registry names. Empty means
	// every name in dataset.Default resolves.
	Datasets []string
	// DefaultH is the advertiser count used when a request omits h
	// (default 4); MaxH caps it (default 64).
	DefaultH int
	MaxH     int
	// Workers sizes every engine's sampling pool (EngineOptions). It
	// changes no answer, so the result cache does not key on it.
	Workers int
	// SingletonRuns is the workbench's Monte-Carlo budget for singleton
	// spreads on the quality datasets (0 = the eval default).
	SingletonRuns int
	// MaxConcurrent bounds solve/evaluate sessions running at once
	// (default GOMAXPROCS); MaxQueue bounds sessions waiting for a slot
	// (default 64) — beyond it requests get 429 + Retry-After.
	MaxConcurrent int
	MaxQueue      int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 60s); MaxTimeout caps any request deadline (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries bounds the result cache (default 512; negative
	// disables caching).
	CacheEntries int
	// DrainTimeout is the default Drain deadline used by cmd/rmserved's
	// SIGTERM handler (default 30s).
	DrainTimeout time.Duration
	// MaxEvalRuns caps /v1/evaluate Monte-Carlo runs (default 100000).
	MaxEvalRuns int
	// MaxEvalWorkers caps /v1/evaluate's per-request simulation
	// parallelism (default max(GOMAXPROCS, 2)); each evaluate worker is a
	// goroutine with its own O(NumNodes) simulator, so an uncapped value
	// would let one request amplify into arbitrary memory.
	MaxEvalWorkers int
	// WALDir enables the durable mutation log: every accepted /v1/mutate
	// delta is appended to a per-(dataset, h) write-ahead log under this
	// directory — and fsynced per WALSync — before the generation swap is
	// acknowledged, and RecoverWAL replays checkpoints + log at startup.
	// Empty disables durability (the historical in-memory behavior).
	WALDir string
	// WALSync is the log's fsync policy (default wal.SyncAlways).
	WALSync wal.SyncPolicy
	// WALSegmentBytes is the log's segment-rotation threshold (default
	// 4 MiB).
	WALSegmentBytes int64
	// CheckpointInterval, when positive and WALDir is set, checkpoints
	// every WAL-backed engine on this period: an atomic RMSNAP of the
	// serving graph+model is written into the key's WAL directory and the
	// log is truncated. POST /v1/checkpoint does the same on demand.
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = gen.ScaleSmall
	}
	if c.DatasetSeed == 0 {
		c.DatasetSeed = 1
	}
	if c.DefaultH <= 0 {
		c.DefaultH = 4
	}
	if c.MaxH <= 0 {
		c.MaxH = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxEvalRuns <= 0 {
		c.MaxEvalRuns = 100_000
	}
	if c.MaxEvalWorkers <= 0 {
		c.MaxEvalWorkers = runtime.GOMAXPROCS(0)
		// Never below the request default (2), so a bare evaluate request
		// is accepted even on a single-CPU box.
		if c.MaxEvalWorkers < 2 {
			c.MaxEvalWorkers = 2
		}
	}
	return c
}

// benchKey identifies one warm engine: dataset name plus advertiser
// count (the workbench draws h advertisers, so instances with different
// h are different problems over the same graph).
type benchKey struct {
	name string
	h    int
}

// Server is the long-running solver service. Construct with New, mount
// Handler on an http.Server (use BaseContext so in-flight requests abort
// on Close), and call Drain on shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	adm     *admission
	cache   *resultCache
	met     *metrics
	gate    *drainGate
	allowed map[string]bool // nil = whole registry
	start   time.Time

	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	benches map[benchKey]*eval.Workbench

	// walMu guards wals; each walState has its own mutex serializing
	// that key's append→commit sequence and checkpoints.
	walMu sync.Mutex
	wals  map[benchKey]*walState
	// checkpointDone is closed when the periodic checkpoint loop (if
	// configured) has exited.
	checkpointDone chan struct{}

	// testHookSolveStarted, when non-nil, runs on the handler goroutine
	// after admission and cache lookup, immediately before Engine.Solve —
	// the seam the drain/backpressure tests use to hold a session
	// in-flight deterministically.
	testHookSolveStarted func()
}

// New builds a Server from the config. No listener is involved: callers
// mount Handler themselves (cmd/rmserved on an http.Server, tests on
// httptest).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		cache:   newResultCache(cfg.CacheEntries),
		met:     &metrics{},
		gate:    newDrainGate(),
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
		benches: map[benchKey]*eval.Workbench{},
		wals:    map[benchKey]*walState{},
	}
	if len(cfg.Datasets) > 0 {
		s.allowed = make(map[string]bool, len(cfg.Datasets))
		for _, name := range cfg.Datasets {
			s.allowed[name] = true
		}
	}
	s.routes()
	if cfg.WALDir != "" && cfg.CheckpointInterval > 0 {
		s.checkpointDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s
}

// Config returns the server's resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the root handler serving every endpoint: the route
// mux wrapped in the panic-recovery middleware, so a handler bug (or
// an injected failpoint panic) answers 500 and bumps
// rmserved_panics_total instead of tearing down the connection.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// BaseContext is the ancestor of every request context (wire it as the
// http.Server's BaseContext). It is canceled when a drain deadline
// expires or Close is called, so in-flight sessions abort promptly.
func (s *Server) BaseContext() context.Context { return s.baseCtx }

// Draining reports whether the server has stopped admitting sessions.
func (s *Server) Draining() bool { return s.gate.isDraining() }

// Warm eagerly builds the workbenches (graph, model, singleton spreads,
// engine) for the named datasets at h advertisers, so first requests
// don't pay the build. With no names it warms the configured Datasets
// list. Errors abort at the first failing dataset.
func (s *Server) Warm(names []string, h int) error {
	if len(names) == 0 {
		names = s.cfg.Datasets
	}
	if h <= 0 {
		h = s.cfg.DefaultH
	}
	for _, name := range names {
		if _, err := s.workbench(name, h); err != nil {
			return fmt.Errorf("serve: warming %q: %w", name, err)
		}
	}
	return nil
}

// workbench returns the warm workbench (graph + model + engine) for
// (dataset, h), building it on first use. Builds resolve through
// dataset.Default and the eval workbench cache, so a name means the
// same instance here, in rmbench, and in rmsolve.
func (s *Server) workbench(name string, h int) (*eval.Workbench, error) {
	if s.allowed != nil && !s.allowed[name] {
		return nil, errDatasetNotServed(name, s.servedNames())
	}
	key := benchKey{name: name, h: h}
	s.mu.Lock()
	wb, ok := s.benches[key]
	s.mu.Unlock()
	if ok {
		return wb, nil
	}
	// Build outside s.mu: eval.NewWorkbench serializes internally, and a
	// slow first build must not block /metrics or /v1/datasets.
	wb, err := eval.NewWorkbench(name, eval.Params{
		Scale:         s.cfg.Scale,
		Seed:          s.cfg.DatasetSeed,
		H:             h,
		SingletonRuns: s.cfg.SingletonRuns,
		SampleWorkers: s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev, ok := s.benches[key]; ok {
		wb = prev // a concurrent request won the build race
	} else {
		s.benches[key] = wb
	}
	s.mu.Unlock()
	return wb, nil
}

// servedNames returns the dataset names this server resolves, sorted.
func (s *Server) servedNames() []string {
	if s.allowed == nil {
		return datasetNames()
	}
	names := make([]string, 0, len(s.allowed))
	for name := range s.allowed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// warmKeys snapshots the built (dataset, h) pairs, sorted.
func (s *Server) warmKeys() []benchKey {
	s.mu.Lock()
	keys := make([]benchKey, 0, len(s.benches))
	for k := range s.benches {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].h < keys[j].h
	})
	return keys
}

// Drain gracefully shuts the solve surface down: stop admitting new
// sessions (readyz flips to 503), wait for in-flight sessions to finish
// within timeout, then cancel whatever remains through the base context
// and wait for it to unwind. A nil return means every in-flight session
// completed normally; the error return means stragglers were canceled —
// either way the server is fully quiesced when Drain returns, and the
// process can exit 0 (timeout <= 0 uses Config.DrainTimeout).
func (s *Server) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	idle := s.gate.beginDrain()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-idle:
		s.cancel()
		s.closeWALs()
		return nil
	case <-timer.C:
	}
	// Deadline passed with sessions still in flight: cancel them. Solves
	// honor ctx at sampling-batch and per-assignment granularity, so the
	// unwind is prompt; the second timer is a hard backstop against a
	// session stuck outside engine code.
	s.cancel()
	hard := time.NewTimer(10 * time.Second)
	defer hard.Stop()
	select {
	case <-idle:
		s.closeWALs()
		return fmt.Errorf("serve: drain deadline %v exceeded; %s", timeout, "in-flight sessions canceled")
	case <-hard.C:
		s.closeWALs()
		return fmt.Errorf("serve: sessions still in flight after drain cancellation")
	}
}

// Close cancels every in-flight session and stops admission immediately
// (an ungraceful Drain). Safe to call after Drain.
func (s *Server) Close() {
	s.gate.beginDrain()
	s.cancel()
	if s.checkpointDone != nil {
		<-s.checkpointDone
	}
	s.closeWALs()
}

// drainGate tracks in-flight sessions and the draining flag with one
// mutex, so the stop-admitting flip and the in-flight count cannot race
// (the WaitGroup add-after-Wait hazard).
type drainGate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed once draining && inflight == 0
}

func newDrainGate() *drainGate {
	return &drainGate{idle: make(chan struct{})}
}

// enter admits one session; false once draining.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// exit retires one session, signaling idle when the drain completes.
func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		g.closeIdleLocked()
	}
}

// beginDrain stops admission and returns the channel closed when the
// last in-flight session exits (already closed if none are in flight).
// Idempotent.
func (g *drainGate) beginDrain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.inflight == 0 {
		g.closeIdleLocked()
	}
	return g.idle
}

func (g *drainGate) closeIdleLocked() {
	select {
	case <-g.idle:
	default:
		close(g.idle)
	}
}

func (g *drainGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

func (g *drainGate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}
