package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/gen"
)

// BenchSchemaVersion is the version of the machine-readable benchmark
// report format below. The schema is documented in docs/bench-schema.md;
// bump the version on any incompatible change so downstream tooling
// (CI artifact diffing, perf dashboards) can dispatch on it.
const BenchSchemaVersion = 1

// BenchReport is the root object of `rmbench -json` output: one run of
// one or more experiments with enough provenance (git SHA/date, go
// version, scale, seed, workers) to compare runs across commits. CI
// archives one report per commit as the BENCH_${GITHUB_SHA}.json build
// artifact, which is what turns the repository's performance trajectory
// into data.
type BenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GitSHA        string `json:"git_sha,omitempty"`
	GitDate       string `json:"git_date,omitempty"`
	GoVersion     string `json:"go_version"`
	Scale         string `json:"scale"`
	Seed          uint64 `json:"seed"`
	Workers       int    `json:"workers"`
	// PeakRSSBytes is the process's peak resident set (VmHWM) at report
	// time — the whole-run memory high-water mark, the number the
	// mmap-vs-copy loading comparison is about. 0 when the platform
	// doesn't expose it.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`

	Experiments []BenchExperiment `json:"experiments"`
}

// BenchExperiment is one experiment ID's outcome: its wall time, the
// rendered tables (machine-readable), and the per-run measurements
// where the experiment produces them.
type BenchExperiment struct {
	ID          string       `json:"id"`
	WallSeconds float64      `json:"wall_seconds"`
	Tables      []BenchTable `json:"tables,omitempty"`
	Runs        []BenchRun   `json:"runs,omitempty"`
}

// BenchTable is the JSON form of a rendered Table.
type BenchTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// BenchRun is one (algorithm, problem) measurement: the solve's
// coordinates plus the performance counters the scaling work tracks —
// wall time, RR-set counts, RR-store and sampler memory.
type BenchRun struct {
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	Kind      string  `json:"kind,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	H         int     `json:"h"`
	Budget    float64 `json:"budget,omitempty"`
	Window    int     `json:"window,omitempty"`

	Revenue            float64 `json:"revenue"`
	SeedCost           float64 `json:"seed_cost"`
	Seeds              int     `json:"seeds"`
	WallSeconds        float64 `json:"wall_seconds"`
	RRSets             int64   `json:"rr_sets"`
	RRMemoryBytes      int64   `json:"rr_memory_bytes"`
	SamplerMemoryBytes int64   `json:"sampler_memory_bytes"`
	SampleWorkers      int     `json:"sample_workers"`
}

// NewBenchReport starts a report for the given harness parameters.
// gitSHA and gitDate are caller-supplied provenance (CI passes
// ${GITHUB_SHA} and the commit date); empty values are omitted.
func NewBenchReport(params Params, gitSHA, gitDate string) *BenchReport {
	params = params.withDefaults()
	workers := params.SampleWorkers
	if workers < 1 {
		workers = 1 // 0 selects the single-worker pool
	}
	return &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		GitSHA:        gitSHA,
		GitDate:       gitDate,
		GoVersion:     runtime.Version(),
		Scale:         params.Scale.String(),
		Seed:          params.Seed,
		Workers:       workers,
	}
}

// AddExperiment appends one experiment's artifacts to the report.
func (r *BenchReport) AddExperiment(id string, wall time.Duration, tables []*Table, runs []BenchRun) {
	exp := BenchExperiment{ID: id, WallSeconds: wall.Seconds(), Runs: runs}
	for _, t := range tables {
		exp.Tables = append(exp.Tables, BenchTableOf(t))
	}
	r.Experiments = append(r.Experiments, exp)
}

// BenchTableOf converts a rendered Table into its JSON form.
func BenchTableOf(t *Table) BenchTable {
	bt := BenchTable{Title: t.Title, Header: t.Header, Rows: t.Rows}
	if bt.Rows == nil {
		bt.Rows = [][]string{}
	}
	return bt
}

// BenchRunOf converts a quality-experiment measurement.
func BenchRunOf(res RunResult) BenchRun {
	return BenchRun{
		Dataset:            res.Dataset,
		Algorithm:          res.Algorithm.String(),
		Kind:               res.Kind.String(),
		Alpha:              res.Alpha,
		H:                  res.H,
		Budget:             res.Budget,
		Window:             res.Window,
		Revenue:            res.Revenue,
		SeedCost:           res.SeedCost,
		Seeds:              res.Seeds,
		WallSeconds:        res.Duration.Seconds(),
		RRSets:             res.RRSets,
		RRMemoryBytes:      res.MemBytes,
		SamplerMemoryBytes: res.SamplerBytes,
		SampleWorkers:      res.SampleWorkers,
	}
}

// BenchRunOfScale converts a scalability-sweep measurement. Figure 5's
// tables report runtime and memory only; the run still carries the
// MC-evaluated revenue and the seed cost of its allocation.
func BenchRunOfScale(pt ScalePoint) BenchRun {
	return BenchRun{
		Dataset:            pt.Dataset,
		Algorithm:          pt.Algorithm.String(),
		H:                  pt.H,
		Budget:             pt.Budget,
		Revenue:            pt.Revenue,
		SeedCost:           pt.SeedCost,
		Seeds:              pt.Seeds,
		WallSeconds:        pt.Duration.Seconds(),
		RRSets:             pt.RRSets,
		RRMemoryBytes:      pt.MemBytes,
		SamplerMemoryBytes: pt.SamplerBytes,
		SampleWorkers:      pt.Workers,
	}
}

// Validate checks the report against the documented schema: version
// match, provenance and coordinate fields well-formed, table rows
// rectangular, counters non-negative. A report that passes Validate
// round-trips through encoding/json unchanged.
func (r *BenchReport) Validate() error {
	if r.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("eval: report schema_version %d, want %d", r.SchemaVersion, BenchSchemaVersion)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("eval: report missing go_version")
	}
	if _, err := gen.ParseScale(r.Scale); err != nil {
		return fmt.Errorf("eval: report scale: %w", err)
	}
	if r.Workers < 1 {
		return fmt.Errorf("eval: report workers %d < 1", r.Workers)
	}
	if r.PeakRSSBytes < 0 {
		return fmt.Errorf("eval: report peak_rss_bytes %d < 0", r.PeakRSSBytes)
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("eval: report has no experiments")
	}
	seen := map[string]bool{}
	for i, exp := range r.Experiments {
		if exp.ID == "" {
			return fmt.Errorf("eval: experiment %d has empty id", i)
		}
		if seen[exp.ID] {
			return fmt.Errorf("eval: duplicate experiment id %q", exp.ID)
		}
		seen[exp.ID] = true
		if exp.WallSeconds < 0 {
			return fmt.Errorf("eval: experiment %q has negative wall_seconds", exp.ID)
		}
		for _, tbl := range exp.Tables {
			if len(tbl.Header) == 0 {
				return fmt.Errorf("eval: experiment %q table %q has no header", exp.ID, tbl.Title)
			}
			for j, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					return fmt.Errorf("eval: experiment %q table %q row %d has %d cells for %d columns",
						exp.ID, tbl.Title, j, len(row), len(tbl.Header))
				}
			}
		}
		for j, run := range exp.Runs {
			if run.Dataset == "" || run.Algorithm == "" {
				return fmt.Errorf("eval: experiment %q run %d missing dataset or algorithm", exp.ID, j)
			}
			if run.H < 1 {
				return fmt.Errorf("eval: experiment %q run %d has h %d < 1", exp.ID, j, run.H)
			}
			if run.Seeds < 0 || run.RRSets < 0 || run.RRMemoryBytes < 0 ||
				run.SamplerMemoryBytes < 0 || run.WallSeconds < 0 {
				return fmt.Errorf("eval: experiment %q run %d has a negative counter", exp.ID, j)
			}
			if run.SampleWorkers < 1 {
				return fmt.Errorf("eval: experiment %q run %d has sample_workers %d < 1", exp.ID, j, run.SampleWorkers)
			}
		}
	}
	return nil
}

// WriteJSON validates the report and writes it, indented, to w.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
