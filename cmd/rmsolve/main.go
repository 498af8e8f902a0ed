// Command rmsolve solves a single revenue-maximization instance and prints
// the allocation: which users endorse which ad, what each advertiser pays,
// and the host's revenue.
//
// Examples:
//
//	rmsolve -dataset=flixster -scale=tiny -h=4 -alg=ti-csrm -kind=linear -alpha=0.2
//	rmsolve -dataset=epinions -scale=small -alg=ti-carm -eps=0.3
//	rmsolve -dataset=dblp -scale=small -alg=pagerank-rr -kind=sublinear -alpha=2
//	rmsolve -snapshot=epinions.snap -h=4 -alg=ti-csrm
//
// -snapshot solves on a binary dataset snapshot (see graphgen
// -format=snapshot) or an edge-list file instead of synthesizing the
// preset; snapshots load the graph and probability model back exactly,
// so repeated studies of one instance skip regeneration entirely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/incentive"
)

var (
	datasetFl = flag.String("dataset", "flixster", "dataset name (preset or registered file entry)")
	snapFlag  = flag.String("snapshot", "", "solve on a snapshot/edge-list file instead of a synthesized preset (overrides -dataset/-scale)")
	scaleFlag = flag.String("scale", "tiny", "dataset scale: tiny|small|medium|full")
	hFlag     = flag.Int("h", 4, "number of advertisers")
	algFlag   = flag.String("alg", core.DefaultModeName, "algorithm: "+strings.Join(core.ModeNames(), "|"))
	kindFlag  = flag.String("kind", "linear", "incentive model: linear|constant|sublinear|superlinear")
	alpha     = flag.Float64("alpha", 0.2, "incentive scale α (paper's full-scale value)")
	epsFlag   = flag.Float64("eps", 0.1, "estimation accuracy ε")
	window    = flag.Int("window", 0, "TI-CSRM window size (0 = full)")
	seed      = flag.Uint64("seed", 1, "random seed")
	maxTheta  = flag.Int("maxtheta", 0, "cap on RR sets per advertiser (0 = default)")
	topSeeds  = flag.Int("top", 5, "how many seeds to list per ad")
	outPath   = flag.String("out", "", "write the allocation as JSON to this file")
	share     = flag.Bool("share", false, "share RR samples across ads with identical topics")
	workers   = flag.Int("workers", 0, "goroutines for RR sampling and Monte-Carlo simulation (default 0 = all CPU cores; results do not depend on it)")
	rssFlag   = flag.Bool("rss", false, "report the process peak RSS (VmHWM) after the solve")
	timeout   = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit); Ctrl-C also cancels gracefully")
	progFlag  = flag.Bool("progress", false, "stream solver progress events (θ growth, committed seeds) to stderr")
)

func main() {
	flag.Parse()
	// Ctrl-C / SIGTERM cancel the solve context: the engine returns
	// promptly with ErrCanceled instead of the process dying mid-solve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx); err != nil {
		if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "rmsolve: canceled (timeout or interrupt):", err)
		} else {
			fmt.Fprintln(os.Stderr, "rmsolve:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	scale, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	kind, err := incentive.ParseKind(*kindFlag)
	if err != nil {
		return err
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.NumCPU()
	}
	params := eval.Params{Scale: scale, Seed: *seed, H: *hFlag, Epsilon: *epsFlag,
		Window: *window, MaxThetaPerAd: *maxTheta, Workers: nw, SampleWorkers: nw}
	name := *datasetFl
	if *snapFlag != "" {
		// Register the file under its own path so the workbench resolves
		// it through the shared registry like any other dataset name. A
		// collision (e.g. a file literally named "dblp") is an error —
		// silently resolving the synthetic preset instead of the user's
		// file would solve a different graph.
		name = *snapFlag
		if err := dataset.Default.RegisterFile(name, *snapFlag); err != nil {
			return err
		}
	}
	w, err := eval.NewWorkbench(name, params)
	if err != nil {
		return err
	}
	p := w.Problem(kind, *alpha)
	opt := core.Options{Epsilon: *epsFlag, Window: *window, Seed: *seed,
		MaxThetaPerAd: *maxTheta, ShareSamples: *share}
	if *progFlag {
		opt.Progress = func(ev core.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "  [%s] ad=%d theta=%d seeds=%d revenue=%.1f\n",
				ev.Kind, ev.Ad, ev.Theta, ev.Seeds, ev.TotalRevenue)
		}
	}

	// One Engine per dataset/model: the workbench already constructed it
	// with this run's -workers; every solve and evaluation below is
	// a session on it. Algorithm dispatch is registry-driven: the mode's
	// capability flags decide the auxiliary inputs, so this CLI never
	// grows another switch when an algorithm lands.
	eng := w.Engine()
	mode, err := core.ParseMode(*algFlag)
	if err != nil {
		return err
	}
	info, _ := core.ModeInfo(mode)
	opt.Mode = mode
	if info.NeedsPRScores {
		opt.PRScores = baseline.ScoresForProblem(p, baseline.PageRankOptions{})
	}
	alloc, stats, err := eng.Solve(ctx, p, opt)
	if err != nil {
		if stats != nil && errors.Is(err, core.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "partial work before cancellation: %d RR sets in %v\n",
				stats.TotalRRSets, stats.Duration.Round(1e6))
		}
		return fmt.Errorf("solve failed: %w", err)
	}
	ev, err := eng.Evaluate(ctx, p, alloc, 2000, nw, *seed^0xabcdef)
	if err != nil {
		return fmt.Errorf("evaluation failed: %w", err)
	}

	throughput := 0.0
	if s := stats.Duration.Seconds(); s > 0 {
		throughput = float64(stats.TotalRRSets) / s
	}
	fmt.Printf("dataset=%s scale=%s nodes=%d edges=%d h=%d alg=%s kind=%s alpha=%g eps=%g\n",
		w.Dataset.Name, scale, p.Graph.NumNodes(), p.Graph.NumEdges(), *hFlag,
		info.Name, kind, *alpha, *epsFlag)
	fmt.Printf("solved in %v; %d RR sets, %.1f MB RR memory + %.1f MB sampler scratch, %d workers, %.0f RR sets/sec\n",
		stats.Duration.Round(1e6), stats.TotalRRSets,
		float64(stats.RRMemoryBytes)/(1<<20),
		float64(stats.SamplerMemoryBytes)/(1<<20), stats.SampleWorkers, throughput)
	if mmapped := dataset.MmapActiveBytes(); mmapped > 0 {
		fmt.Printf("snapshot mmapped zero-copy: %.1f MB\n", float64(mmapped)/(1<<20))
	}
	if *rssFlag {
		fmt.Printf("peak RSS (VmHWM): %.1f MB\n", float64(eval.PeakRSSBytes())/(1<<20))
	}
	fmt.Println()

	for i := range alloc.Seeds {
		fmt.Printf("ad %d: budget=%.1f cpe=%.2f seeds=%d\n",
			i, p.Ads[i].Budget, p.Ads[i].CPE, len(alloc.Seeds[i]))
		fmt.Printf("  revenue=%.1f seed-cost=%.1f payment=%.1f (MC-evaluated)\n",
			ev.Revenue[i], ev.SeedCost[i], ev.Payment[i])
		show := len(alloc.Seeds[i])
		if show > *topSeeds {
			show = *topSeeds
		}
		for j := 0; j < show; j++ {
			u := alloc.Seeds[i][j]
			fmt.Printf("    seed %d: incentive=%.2f out-degree=%d\n",
				u, p.Incentives[i].Cost(u), p.Graph.OutDegree(u))
		}
		if len(alloc.Seeds[i]) > show {
			fmt.Printf("    ... and %d more\n", len(alloc.Seeds[i])-show)
		}
	}
	fmt.Printf("\nTOTAL revenue=%.1f seed-cost=%.1f payment=%.1f seeds=%d\n",
		ev.TotalRevenue(), ev.TotalSeedCost(),
		ev.TotalRevenue()+ev.TotalSeedCost(), alloc.NumSeeds())
	if *outPath != "" {
		if err := core.SaveAllocation(*outPath, alloc); err != nil {
			return err
		}
		fmt.Printf("allocation written to %s\n", *outPath)
	}
	return nil
}
