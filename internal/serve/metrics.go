package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// metrics holds the server-level counters exported at /metrics. All
// fields are atomics: handlers bump them without coordination and the
// exporter reads a per-field-consistent snapshot.
type metrics struct {
	solves            atomic.Int64 // /v1/solve sessions dispatched to an engine
	evaluates         atomic.Int64 // /v1/evaluate sessions dispatched to an engine
	mutates           atomic.Int64 // /v1/mutate deltas dispatched to an engine
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	rejectedBusy      atomic.Int64 // 429: queue full
	rejectedDraining  atomic.Int64 // 503: drain in progress
	deadlineExceeded  atomic.Int64 // 504: request deadline fired mid-session
	clientDisconnects atomic.Int64 // 499: client hung up while queued or mid-session
	requestErrors     atomic.Int64 // other 4xx/5xx
	sessionsCompleted atomic.Int64 // sessions that produced a 200
	panics            atomic.Int64 // handler panics converted to 500 by recoverPanics
	walAppends        atomic.Int64 // mutation records durably appended to the WAL
	walAppendErrors   atomic.Int64 // WAL appends that failed (mutation aborted, engine untouched)
	checkpoints       atomic.Int64 // checkpoints written (periodic + /v1/checkpoint)
	recoveryReplayed  atomic.Int64 // deltas replayed from the WAL at startup
}

// engineRow is one warm engine's exportable state: cumulative counters
// plus the memory it holds right now.
type engineRow struct {
	labels        string
	counters      core.EngineCounters
	universes     int64
	universeBytes int64
	samplerBytes  int64
	workers       int64
	shards        int64
	generation    int64
}

// handleMetrics renders the Prometheus text exposition format (0.0.4)
// from the server counters, the admission gate, the result cache, and
// every warm engine's cumulative counters — no client library, the
// format is plain text and the repo takes no new dependencies.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("rmserved_uptime_seconds", "Seconds since the server was constructed.",
		fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
	draining := 0
	if s.gate.isDraining() {
		draining = 1
	}
	gauge("rmserved_draining", "1 while the server is draining (no new sessions admitted).", draining)
	gauge("rmserved_inflight_sessions", "Solve/evaluate sessions past the drain gate and not yet finished.", s.gate.inFlight())
	gauge("rmserved_running_sessions", "Sessions currently holding an admission slot.", s.adm.running())
	gauge("rmserved_queue_depth", "Sessions waiting for an admission slot.", s.adm.queueDepth())
	gauge("rmserved_cache_entries", "Entries in the result cache.", s.cache.len())
	gauge("rmserved_snapshot_mmap_bytes", "Bytes of dataset snapshots currently memory-mapped (zero-copy load path).", dataset.MmapActiveBytes())

	counter("rmserved_solves_total", "Solve sessions dispatched to an engine (cache hits excluded).", s.met.solves.Load())
	counter("rmserved_evaluates_total", "Evaluate sessions dispatched to an engine (cache hits excluded).", s.met.evaluates.Load())
	counter("rmserved_mutates_total", "Graph deltas dispatched to an engine via /v1/mutate (including rejected ones).", s.met.mutates.Load())
	counter("rmserved_sessions_completed_total", "Sessions that returned a successful response.", s.met.sessionsCompleted.Load())
	counter("rmserved_cache_hits_total", "Requests served bit-identically from the result cache.", s.met.cacheHits.Load())
	counter("rmserved_cache_misses_total", "Cacheable requests that had to be computed.", s.met.cacheMisses.Load())
	counter("rmserved_rejected_busy_total", "Requests rejected with 429 because the session queue was full.", s.met.rejectedBusy.Load())
	counter("rmserved_rejected_draining_total", "Requests rejected with 503 during drain.", s.met.rejectedDraining.Load())
	counter("rmserved_deadline_exceeded_total", "Sessions that hit their request deadline and returned 504.", s.met.deadlineExceeded.Load())
	counter("rmserved_client_disconnects_total", "Requests abandoned by the client while queued or mid-session (not server timeouts).", s.met.clientDisconnects.Load())
	counter("rmserved_request_errors_total", "Requests that failed for other reasons (bad input, unknown dataset, internal).", s.met.requestErrors.Load())
	counter("rmserved_panics_total", "Handler panics recovered and converted to 500 responses.", s.met.panics.Load())

	if s.cfg.WALDir != "" {
		ws := s.walStats()
		counter("rmserved_wal_appends_total", "Mutation records durably appended to the write-ahead log.", s.met.walAppends.Load())
		counter("rmserved_wal_append_errors_total", "WAL appends that failed; the mutation was aborted with the engine untouched.", s.met.walAppendErrors.Load())
		counter("rmserved_checkpoints_total", "Checkpoints written (periodic and on-demand /v1/checkpoint).", s.met.checkpoints.Load())
		gauge("rmserved_recovery_replayed_deltas", "Mutation records replayed from the WAL during startup recovery.", s.met.recoveryReplayed.Load())
		fmt.Fprintf(&b, "# HELP rmserved_wal_fsync_seconds Cumulative seconds spent in WAL fsyncs.\n# TYPE rmserved_wal_fsync_seconds counter\nrmserved_wal_fsync_seconds %.6f\n", ws.FsyncSeconds)
		gauge("rmserved_wal_records", "Records currently held by open mutation logs (not yet compacted into a checkpoint).", ws.Records)
		gauge("rmserved_wal_segments", "Open WAL segment files across all engines.", ws.Segments)
		gauge("rmserved_wal_size_bytes", "On-disk bytes of all open mutation logs.", ws.SizeBytes)
	}

	// Per-engine series, labeled by dataset and advertiser count.
	rows := s.engineRows()
	gauge("rmserved_warm_engines", "Warm (dataset, h) engines currently held.", len(rows))
	emit := func(name, help, kind string, get func(r engineRow) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, r := range rows {
			fmt.Fprintf(&b, "%s{%s} %d\n", name, r.labels, get(r))
		}
	}
	emit("rmserved_engine_solves_started_total", "Solve calls entered on this engine.", "counter",
		func(r engineRow) int64 { return r.counters.SolvesStarted })
	emit("rmserved_engine_solves_completed_total", "Solve calls that returned an allocation.", "counter",
		func(r engineRow) int64 { return r.counters.SolvesCompleted })
	emit("rmserved_engine_solves_failed_total", "Solve calls rejected, canceled, or failed.", "counter",
		func(r engineRow) int64 { return r.counters.SolvesFailed })
	emit("rmserved_engine_evaluations_total", "Evaluate calls served by this engine.", "counter",
		func(r engineRow) int64 { return r.counters.Evaluations })
	emit("rmserved_engine_rr_sets_sampled_total", "RR sets sampled across all sessions, including canceled partial work.", "counter",
		func(r engineRow) int64 { return r.counters.RRSetsSampled })
	emit("rmserved_engine_universe_cache_hits_total", "Cross-solve universe cache hits by ShareSamples sessions.", "counter",
		func(r engineRow) int64 { return r.counters.UniverseCacheHits })
	emit("rmserved_engine_universe_cache_misses_total", "Cross-solve universe cache misses (entry created).", "counter",
		func(r engineRow) int64 { return r.counters.UniverseCacheMisses })
	emit("rmserved_engine_cached_universes", "RR-set universes held by the cross-solve cache.", "gauge",
		func(r engineRow) int64 { return r.universes })
	emit("rmserved_engine_cached_universe_bytes", "Heap footprint of the cross-solve universe cache.", "gauge",
		func(r engineRow) int64 { return r.universeBytes })
	emit("rmserved_engine_sampler_memory_bytes", "High-water scratch footprint of the engine's sampling pool.", "gauge",
		func(r engineRow) int64 { return r.samplerBytes })
	emit("rmserved_engine_workers", "RR-sampling scratch slots of the engine.", "gauge",
		func(r engineRow) int64 { return r.workers })
	emit("rm_shards", "Resolved RR-shard count of the engine (>= 1).", "gauge",
		func(r engineRow) int64 { return r.shards })
	emit("rmserved_graph_generation", "Serving graph generation of the engine (0 until its first mutate).", "gauge",
		func(r engineRow) int64 { return r.generation })
	emit("rmserved_engine_mutations_total", "Completed generation swaps on this engine.", "counter",
		func(r engineRow) int64 { return r.counters.Mutations })
	emit("rmserved_rrsets_invalidated_total", "RR sets marked stale by generation swaps.", "counter",
		func(r engineRow) int64 { return r.counters.RRSetsInvalidated })
	emit("rmserved_rrsets_repaired_total", "Stale RR-set slots resampled during generation swaps.", "counter",
		func(r engineRow) int64 { return r.counters.RRSetsRepaired })
	b.WriteString("# HELP rmserved_engine_repair_seconds_total Wall seconds generation swaps spent repairing stale RR-set slots.\n" +
		"# TYPE rmserved_engine_repair_seconds_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "rmserved_engine_repair_seconds_total{%s} %.6f\n", r.labels, r.counters.RepairDuration.Seconds())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// engineRows snapshots every warm engine's exportable state, in the
// sorted order of warmKeys.
func (s *Server) engineRows() []engineRow {
	keys := s.warmKeys()
	rows := make([]engineRow, 0, len(keys))
	for _, k := range keys {
		s.mu.Lock()
		wb := s.benches[k]
		s.mu.Unlock()
		if wb == nil {
			continue
		}
		e := wb.Engine()
		rows = append(rows, engineRow{
			labels:        fmt.Sprintf("dataset=%q,h=\"%d\"", k.name, k.h),
			counters:      e.Counters(),
			universes:     int64(e.CachedUniverses()),
			universeBytes: e.CachedUniverseBytes(),
			samplerBytes:  e.SamplerMemoryBytes(),
			workers:       int64(e.Workers()),
			shards:        int64(e.Shards()),
			generation:    int64(e.Generation()),
		})
	}
	return rows
}
