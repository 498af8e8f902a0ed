// Command rmbench regenerates the paper's tables and figures.
//
// Each experiment ID corresponds to one artifact of the paper's evaluation
// (Section 5); the experiment index in README.md's Benchmarks section maps
// IDs to their internal/eval drivers and root benchmarks. Examples:
//
//	rmbench -experiment=table1
//	rmbench -experiment=fig2 -scale=small -datasets=flixster,epinions
//	rmbench -experiment=fig5a -scale=medium -csv=fig5a.csv
//	rmbench -experiment=all -scale=tiny
//
// Scale "full" reproduces the paper's dataset sizes (hours of runtime and
// tens of GB of memory, as in the paper); "small" (default) is 1/16 size.
//
// Dataset names are resolved through the shared registry: the synthetic
// presets plus any file-backed entries registered with -snapshot
// (`-snapshot=mygraph=path.snap` makes "mygraph" usable in -datasets).
//
// With -json, rmbench also emits a machine-readable benchmark report
// (schema documented in docs/bench-schema.md): per-experiment wall
// times, every table, and per-run performance counters (RR-set counts,
// RR-store and sampler memory, revenue). CI archives one report per
// commit as the BENCH_${GITHUB_SHA}.json artifact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/incentive"
)

var (
	experiment = flag.String("experiment", "all", "experiment IDs (comma separated): table1|table2|table3|fig1|fig2|fig3|fig4|fig5a|fig5b|fig5c|fig5d|frontier|all")
	scaleFlag  = flag.String("scale", "small", "dataset scale: tiny|small|medium|full")
	seed       = flag.Uint64("seed", 1, "random seed")
	hFlag      = flag.Int("h", 10, "number of advertisers (quality experiments)")
	epsFlag    = flag.Float64("eps", 0, "estimation accuracy ε (0 = per-experiment default: 0.1 quality, 0.3 scalability)")
	alphaPts   = flag.Int("alphas", 5, "number of α grid points (figures 2-3)")
	datasets   = flag.String("datasets", "flixster,epinions", "quality datasets (comma separated, resolved in the dataset registry)")
	kindsFlag  = flag.String("kinds", "linear,constant,sublinear,superlinear", "incentive models for fig2/fig3")
	maxTheta   = flag.Int("maxtheta", 0, "cap on RR sets per advertiser (0 = default 3M)")
	mcEval     = flag.Int("mceval", 2000, "Monte-Carlo runs for allocation evaluation")
	singleRuns = flag.Int("singletons", 500, "Monte-Carlo runs for singleton spreads (paper: 5000)")
	windowsStr = flag.String("windows", "1,50,100,250,500,1000,2500,5000,0", "fig4 window sizes (0 = full)")
	hSweepStr  = flag.String("hsweep", "1,5,10,15,20", "fig5a/b advertiser counts")
	csvPath    = flag.String("csv", "", "also write results as CSV to this file")
	jsonPath   = flag.String("json", "", "write the machine-readable benchmark report to this file ('-' = stdout); see docs/bench-schema.md")
	gitSHA     = flag.String("gitsha", "", "git commit SHA recorded in the -json report")
	gitDate    = flag.String("gitdate", "", "git commit date recorded in the -json report")
	snapFlag   = flag.String("snapshot", "", "register file-backed datasets as comma-separated name=path entries (snapshot or edge-list files)")
	quiet      = flag.Bool("quiet", false, "suppress progress output")
	workers    = flag.Int("workers", 0, "goroutines for RR sampling and Monte-Carlo simulation per run (default 0 = all CPU cores; results do not depend on it)")
	timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); Ctrl-C also cancels gracefully")
)

func main() {
	flag.Parse()
	// Ctrl-C / SIGTERM cancel the experiment contexts; solves in flight
	// return promptly with partial stats instead of being killed mid-write.
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
			fmt.Fprintln(os.Stderr, "rmbench: canceled (timeout or interrupt):", err)
		} else {
			fmt.Fprintln(os.Stderr, "rmbench:", err)
		}
		os.Exit(1)
	}
}

func params() (eval.Params, error) {
	scale, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		return eval.Params{}, err
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.NumCPU()
	}
	return eval.Params{
		Scale:         scale,
		Seed:          *seed,
		H:             *hFlag,
		Epsilon:       *epsFlag,
		MaxThetaPerAd: *maxTheta,
		MCEvalRuns:    *mcEval,
		SingletonRuns: *singleRuns,
		AlphaPoints:   *alphaPts,
		Workers:       nw,
		SampleWorkers: nw,
	}, nil
}

func progress() func(string) {
	if *quiet {
		return nil
	}
	return func(msg string) { fmt.Fprintln(os.Stderr, "  ...", msg) }
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseKinds(s string) ([]incentive.Kind, error) {
	var out []incentive.Kind
	for _, f := range strings.Split(s, ",") {
		k, err := incentive.ParseKind(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// registerSnapshots adds the -snapshot name=path entries to the shared
// registry before any dataset name is resolved or validated.
func registerSnapshots(spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -snapshot entry %q (want name=path)", entry)
		}
		if err := dataset.Default.RegisterFile(name, path); err != nil {
			return err
		}
	}
	return nil
}

// datasetList validates the -datasets flag against the registry: an
// unknown name is an error up front, not a silently skipped sweep.
func datasetList() ([]string, error) {
	var names []string
	for _, f := range strings.Split(*datasets, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		if !dataset.Default.Has(name) {
			return nil, fmt.Errorf("-datasets: %w", dataset.Default.UnknownDatasetError(name))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-datasets names no datasets")
	}
	return names, nil
}

// result is one experiment's artifacts: rendered tables plus the per-run
// measurements (when the experiment produces them) for the JSON report.
type result struct {
	tables []*eval.Table
	runs   []eval.BenchRun
}

func run(ctx context.Context) error {
	if err := registerSnapshots(*snapFlag); err != nil {
		return err
	}
	p, err := params()
	if err != nil {
		return err
	}
	if _, err := datasetList(); err != nil {
		return err
	}
	// -experiment accepts a comma-separated list, run in order into one
	// report (CI combines fig5a,frontier this way); "all" expands to the
	// paper's full artifact set.
	var ids []string
	for _, id := range strings.Split(*experiment, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("-experiment names no experiments")
	}
	if *experiment == "all" {
		// fig2+fig3 share one QualitySweep via the combined ID.
		ids = []string{"table1", "table2", "fig1", "fig2+fig3", "fig4",
			"fig5a", "fig5b", "fig5c", "fig5d", "table3"}
	}

	// One CSV file for the whole run: historically each experiment
	// re-created (and so truncated) the file, leaving only the last
	// experiment's rows. Closed explicitly below so a failed flush (e.g.
	// ENOSPC) fails the run instead of publishing a truncated artifact.
	var csvFile *os.File
	if *csvPath != "" {
		csvFile, err = os.Create(*csvPath)
		if err != nil {
			return err
		}
	}
	closeCSV := func() error {
		if csvFile == nil {
			return nil
		}
		f := csvFile
		csvFile = nil
		return f.Close()
	}
	defer closeCSV()
	var report *eval.BenchReport
	if *jsonPath != "" {
		report = eval.NewBenchReport(p, *gitSHA, *gitDate)
	}

	for _, id := range ids {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== running %s (scale=%s, workers=%d) ==\n",
				id, p.Scale, p.SampleWorkers)
		}
		start := time.Now()
		res, err := runOne(ctx, id, p)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wall := time.Since(start)
		for _, t := range res.tables {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			if csvFile != nil {
				if _, err := fmt.Fprintf(csvFile, "# %s\n", t.Title); err != nil {
					return err
				}
				if err := t.WriteCSV(csvFile); err != nil {
					return err
				}
			}
		}
		if report != nil {
			report.AddExperiment(id, wall, res.tables, res.runs)
		}
	}

	if err := closeCSV(); err != nil {
		return fmt.Errorf("writing -csv file: %w", err)
	}
	if report != nil {
		// Stamped last: VmHWM is monotone, so this is the whole run's
		// memory ceiling (the mmap-vs-copy comparison number).
		report.PeakRSSBytes = eval.PeakRSSBytes()
		if *jsonPath == "-" {
			if err := report.WriteJSON(os.Stdout); err != nil {
				return fmt.Errorf("writing -json report: %w", err)
			}
			return nil
		}
		// Close errors matter here: a truncated BENCH_*.json artifact
		// (e.g. ENOSPC on the CI runner) must fail the job, not upload.
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing -json report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing -json report: %w", err)
		}
	}
	return nil
}

func runOne(ctx context.Context, id string, p eval.Params) (result, error) {
	switch id {
	case "table1":
		t, err := eval.DatasetStats(p)
		if err != nil {
			return result{}, err
		}
		return result{tables: []*eval.Table{t}}, nil

	case "table2":
		t, err := eval.BudgetStats(p)
		if err != nil {
			return result{}, err
		}
		return result{tables: []*eval.Table{t}}, nil

	case "fig1":
		t, err := eval.Fig1Report()
		if err != nil {
			return result{}, err
		}
		return result{tables: []*eval.Table{t}}, nil

	case "fig2", "fig3", "fig2+fig3":
		ds, err := datasetList()
		if err != nil {
			return result{}, err
		}
		kinds, err := parseKinds(*kindsFlag)
		if err != nil {
			return result{}, err
		}
		cells, err := eval.QualitySweep(ctx, ds, kinds, eval.PaperAlgorithms(), p, progress())
		if err != nil {
			return result{}, err
		}
		var runs []eval.BenchRun
		for _, cell := range cells {
			for _, alg := range eval.PaperAlgorithms() {
				runs = append(runs, eval.BenchRunOf(cell.Results[alg]))
			}
		}
		var tables []*eval.Table
		switch id {
		case "fig2":
			tables = []*eval.Table{eval.RevenueVsAlphaTable(cells, eval.PaperAlgorithms())}
		case "fig3":
			tables = []*eval.Table{eval.SeedCostVsAlphaTable(cells, eval.PaperAlgorithms())}
		default:
			tables = []*eval.Table{
				eval.RevenueVsAlphaTable(cells, eval.PaperAlgorithms()),
				eval.SeedCostVsAlphaTable(cells, eval.PaperAlgorithms()),
			}
		}
		return result{tables: tables, runs: runs}, nil

	case "fig4":
		windows, err := parseInts(*windowsStr)
		if err != nil {
			return result{}, err
		}
		ds, err := datasetList()
		if err != nil {
			return result{}, err
		}
		var res result
		for _, name := range ds {
			points, err := eval.WindowTradeoff(ctx, name, []float64{0.2, 0.5}, windows, p, progress())
			if err != nil {
				return result{}, err
			}
			res.tables = append(res.tables, eval.WindowTradeoffTable(points))
			for _, pt := range points {
				res.runs = append(res.runs, eval.BenchRun{
					Dataset: pt.Dataset, Algorithm: eval.AlgTICSRM.String(),
					Kind: incentive.Linear.String(), Alpha: pt.Alpha,
					H: p.H, Window: pt.Window, Revenue: pt.Revenue,
					WallSeconds: pt.Duration.Seconds(), SampleWorkers: p.SampleWorkers,
				})
			}
		}
		return res, nil

	case "fig5a", "fig5b", "table3":
		hs, err := parseInts(*hSweepStr)
		if err != nil {
			return result{}, err
		}
		name, budget := "dblp", 10_000.0
		if id == "fig5b" {
			name, budget = "livejournal", 100_000.0
		}
		points, err := eval.ScalabilityAdvertisers(ctx, name, hs, budget, p, progress())
		if err != nil {
			return result{}, err
		}
		runs := scaleRuns(points)
		if id == "table3" {
			// Table 3 reports both datasets; run LIVEJOURNAL too.
			pointsLJ, err := eval.ScalabilityAdvertisers(ctx, "livejournal", hs, 100_000, p, progress())
			if err != nil {
				return result{}, err
			}
			return result{
				tables: []*eval.Table{eval.MemoryTable(points), eval.MemoryTable(pointsLJ)},
				runs:   append(runs, scaleRuns(pointsLJ)...),
			}, nil
		}
		return result{tables: []*eval.Table{eval.RuntimeTable(points, "advertisers")}, runs: runs}, nil

	case "fig5c", "fig5d":
		name := "dblp"
		budgets := []float64{5_000, 10_000, 15_000, 20_000, 25_000, 30_000}
		if id == "fig5d" {
			name = "livejournal"
			budgets = []float64{50_000, 100_000, 150_000, 200_000, 250_000}
		}
		points, err := eval.ScalabilityBudget(ctx, name, budgets, p, progress())
		if err != nil {
			return result{}, err
		}
		return result{
			tables: []*eval.Table{eval.RuntimeTable(points, "budget")},
			runs:   scaleRuns(points),
		}, nil

	case "frontier":
		ds, err := datasetList()
		if err != nil {
			return result{}, err
		}
		points, err := eval.Frontier(ctx, ds, p, progress())
		if err != nil {
			return result{}, err
		}
		// One table per dataset so each frontier reads as its own figure.
		var res result
		for _, name := range ds {
			var sub []eval.FrontierPoint
			for _, pt := range points {
				if pt.Dataset == name {
					sub = append(sub, pt)
				}
			}
			res.tables = append(res.tables, eval.FrontierTable(sub))
		}
		res.runs = eval.FrontierRuns(points, p)
		return res, nil

	case "ablation-competition":
		ds, err := datasetList()
		if err != nil {
			return result{}, err
		}
		var tables []*eval.Table
		for _, name := range ds {
			t, err := eval.CompetitionAblation(ctx, name, 0.3, p, progress())
			if err != nil {
				return result{}, err
			}
			tables = append(tables, t)
		}
		return result{tables: tables}, nil

	case "ablation-sharing":
		hs, err := parseInts(*hSweepStr)
		if err != nil {
			return result{}, err
		}
		t, err := eval.SharingAblation(ctx, "epinions", hs, p, progress())
		if err != nil {
			return result{}, err
		}
		return result{tables: []*eval.Table{t}}, nil
	}
	return result{}, fmt.Errorf("unknown experiment %q", id)
}

func scaleRuns(points []eval.ScalePoint) []eval.BenchRun {
	runs := make([]eval.BenchRun, len(points))
	for i, pt := range points {
		runs[i] = eval.BenchRunOfScale(pt)
	}
	return runs
}
