package eval

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incentive"
)

// TestHeadlineCSRMBeatsCARM pins the paper's headline result at reduced
// scale with the paper's quality accuracy (ε = 0.1): on the EPINIONS-like
// marketplace with linear incentives, averaged over engine seeds,
// TI-CSRM spends strictly less on seed incentives than TI-CARM while
// earning at least comparable revenue. (At tiny scale the revenue gap is
// noise-level — see EXPERIMENTS.md — but the cost ordering and the
// no-worse-revenue property are robust; the clear revenue win appears at
// small scale and above.)
func TestHeadlineCSRMBeatsCARM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end run")
	}
	// Workers sets the RNG split of the singleton-MC incentive tables,
	// so it is pinned: the default (runtime.NumCPU) would make the
	// asserted numbers depend on the machine.
	w, err := NewWorkbench("epinions", Params{
		Scale: gen.ScaleTiny, Seed: 7, H: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Problem(incentive.Linear, 0.3)
	eng := core.NewEngine(p.Graph, p.Model, core.EngineOptions{})
	ctx := context.Background()

	var caRev, csRev, caCost, csCost float64
	for _, seed := range []uint64{7, 8, 9} {
		opt := core.Options{Epsilon: 0.1, Seed: seed, MaxThetaPerAd: 400_000}
		caOpt := opt
		caOpt.Mode = core.ModeCostAgnostic
		ca, _, err := eng.Solve(ctx, p, caOpt)
		if err != nil {
			t.Fatal(err)
		}
		csOpt := opt
		csOpt.Mode = core.ModeCostSensitive
		cs, _, err := eng.Solve(ctx, p, csOpt)
		if err != nil {
			t.Fatal(err)
		}
		evCA, err := eng.Evaluate(ctx, p, ca, 4000, 2, 99)
		if err != nil {
			t.Fatal(err)
		}
		evCS, err := eng.Evaluate(ctx, p, cs, 4000, 2, 99)
		if err != nil {
			t.Fatal(err)
		}
		caRev += evCA.TotalRevenue()
		csRev += evCS.TotalRevenue()
		caCost += evCA.TotalSeedCost()
		csCost += evCS.TotalSeedCost()

		// The engine's internal estimate must track the independent MC
		// score within the ε accuracy regime (winner's-curse guard).
		for _, pair := range []struct {
			name  string
			alloc *core.Allocation
			ev    *core.Evaluation
		}{{"TI-CARM", ca, evCA}, {"TI-CSRM", cs, evCS}} {
			est, mc := pair.alloc.TotalRevenue(), pair.ev.TotalRevenue()
			if rel := (est - mc) / mc; rel > 0.05 || rel < -0.05 {
				t.Errorf("%s seed %d: engine estimate %.1f deviates %.1f%% from MC %.1f",
					pair.name, seed, est, 100*rel, mc)
			}
		}
	}
	t.Logf("TI-CSRM/TI-CARM revenue ratio %.4f", csRev/caRev)
	if csCost >= caCost {
		t.Errorf("TI-CSRM mean seed cost %.1f not below TI-CARM %.1f", csCost/3, caCost/3)
	}
	if csRev < 0.98*caRev {
		t.Errorf("TI-CSRM mean revenue %.1f more than 2%% below TI-CARM %.1f",
			csRev/3, caRev/3)
	}
}
