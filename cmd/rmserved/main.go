// Command rmserved is the long-running solver service: an HTTP daemon
// holding one warm solver engine per dataset and serving concurrent
// allocation sessions with admission control, a bit-identical result
// cache, Prometheus metrics, and graceful drain on SIGTERM.
//
// Examples:
//
//	rmserved -addr=127.0.0.1:7600 -scale=tiny
//	rmserved -datasets=flixster,epinions -warm -workers=1
//
//	curl -s localhost:7600/v1/datasets
//	curl -s -XPOST localhost:7600/v1/solve -d '{"dataset":"flixster","h":4,"mode":"ti-csrm"}'
//	curl -s -XPOST localhost:7600/v1/mutate -d '{"dataset":"flixster","add_edges":[{"u":1,"v":2}]}'
//	curl -s localhost:7600/metrics
//
// On SIGTERM (or SIGINT) the daemon stops admitting sessions, finishes
// or cancels in-flight work within -drain, and exits 0. See
// docs/serving.md for the API reference.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/wal"
)

var (
	addr       = flag.String("addr", "127.0.0.1:7600", "listen address (host:port; port 0 picks a free port)")
	scaleFlag  = flag.String("scale", "tiny", "dataset scale served by this instance: tiny|small|medium|full")
	dsSeed     = flag.Uint64("dataset-seed", 1, "seed for dataset synthesis and advertiser drawing")
	datasets   = flag.String("datasets", "", "comma-separated dataset allowlist (empty = whole registry)")
	defaultH   = flag.Int("h", 4, "default advertiser count for requests that omit h")
	maxH       = flag.Int("maxh", 64, "maximum advertiser count a request may ask for")
	workers    = flag.Int("workers", 1, "RR-sampling scratch slots per engine (results do not depend on it)")
	snapFlag   = flag.String("snapshot", "", "serve a snapshot/edge-list file (registered under its path and appended to -datasets); snapshots load zero-copy via mmap")
	maxConc    = flag.Int("max-concurrent", 0, "solve sessions running at once (0 = GOMAXPROCS)")
	maxQueue   = flag.Int("max-queue", 64, "sessions waiting for a slot before 429 (negative = no queue)")
	timeoutFl  = flag.Duration("timeout", 60*time.Second, "default per-session deadline")
	maxTimeout = flag.Duration("max-timeout", 10*time.Minute, "cap on request-supplied deadlines")
	cacheSize  = flag.Int("cache", 512, "result cache entries (negative disables)")
	drainFl    = flag.Duration("drain", 30*time.Second, "SIGTERM drain deadline for in-flight sessions")
	warmFlag   = flag.Bool("warm", false, "build engines for the -datasets list before listening")
	maxEvalW   = flag.Int("max-eval-workers", 0, "cap on per-request /v1/evaluate parallelism (0 = max(GOMAXPROCS, 2))")
	maxStale   = flag.Float64("max-stale", 0, "stale RR-set fraction tolerated before a /v1/mutate swap forces incremental repair (0 = always repair)")
	walDir     = flag.String("wal", "", "directory for the durable mutation WAL (empty = mutations are volatile); startup replays it before listening")
	walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync before ack) | never (crash loses the OS buffer tail)")
	ckptEvery  = flag.Duration("checkpoint-interval", 0, "checkpoint mutated engines and compact their WALs this often (0 = only on POST /v1/checkpoint)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
		os.Exit(1)
	}
}

func run() error {
	scale, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	var names []string
	if *datasets != "" {
		for _, n := range strings.Split(*datasets, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if *snapFlag != "" {
		// Same convention as rmsolve -snapshot: the file is registered
		// under its own path, so that path is its dataset name in the API.
		// Snapshot files resolve through dataset.LoadMmap, so a large
		// instance is served off the page cache instead of a heap copy.
		if err := dataset.Default.RegisterFile(*snapFlag, *snapFlag); err != nil {
			return err
		}
		names = append(names, *snapFlag)
	}
	var syncPolicy wal.SyncPolicy
	switch *walSync {
	case "always":
		syncPolicy = wal.SyncAlways
	case "never":
		syncPolicy = wal.SyncNever
	default:
		return fmt.Errorf("-wal-sync=%q: want always or never", *walSync)
	}
	srv := serve.New(serve.Config{
		Scale:              scale,
		DatasetSeed:        *dsSeed,
		Datasets:           names,
		DefaultH:           *defaultH,
		MaxH:               *maxH,
		Workers:            *workers,
		MaxConcurrent:      *maxConc,
		MaxQueue:           *maxQueue,
		DefaultTimeout:     *timeoutFl,
		MaxTimeout:         *maxTimeout,
		CacheEntries:       *cacheSize,
		DrainTimeout:       *drainFl,
		MaxEvalWorkers:     *maxEvalW,
		MaxStaleFraction:   *maxStale,
		WALDir:             *walDir,
		WALSync:            syncPolicy,
		CheckpointInterval: *ckptEvery,
	})
	if *warmFlag {
		if err := srv.Warm(nil, 0); err != nil {
			return err
		}
	}
	if *walDir != "" {
		// Recovery runs before the listener opens: the first request a
		// client can reach already sees the pre-crash state.
		replayed, err := srv.RecoverWAL()
		if err != nil {
			return fmt.Errorf("WAL recovery: %w", err)
		}
		fmt.Printf("rmserved: WAL recovery replayed %d mutation(s) from %s\n", replayed, *walDir)
	}

	// Catch signals before announcing the address: a client may send
	// SIGTERM as soon as it has seen the announcement and one response.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address is echoed so scripts (and the smoke test) can
	// bind port 0 and discover what they got.
	fmt.Printf("rmserved: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("rmserved: %v received, draining (deadline %v)\n", sig, *drainFl)
	}
	// Drain order: stop admitting at the application layer first (new
	// sessions get 503, readyz flips), wait for in-flight sessions, then
	// close the listener. Either way the daemon exits 0 — a drain that
	// had to cancel stragglers is still an orderly shutdown.
	if err := srv.Drain(*drainFl); err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
	}
	hs.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
	}
	fmt.Println("rmserved: drained, exiting")
	return nil
}
