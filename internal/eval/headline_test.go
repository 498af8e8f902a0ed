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
// marketplace with linear incentives, TI-CSRM spends strictly less on
// seed incentives than TI-CARM while earning at least comparable revenue.
// (At tiny scale the revenue gap is noise-level — see EXPERIMENTS.md —
// but the cost ordering and the no-worse-revenue property are robust;
// the clear revenue win appears at small scale and above.)
//
// The estimand is the mean over six instances, workbench seeds 7–12
// (each its own ads, budgets and singleton-MC incentive tables), solved
// with engine seed 7. One instance's revenue ratio moves with its
// incentive tables by about ±1.5% (0.980–1.010 over these six), which a
// 2% margin cannot resolve; each instance's ratio is logged.
func TestHeadlineCSRMBeatsCARM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end run")
	}
	ctx := context.Background()
	var caRev, csRev, caCost, csCost float64
	const instances = 6
	for wbSeed := uint64(7); wbSeed < 7+instances; wbSeed++ {
		w, err := NewWorkbench("epinions", Params{Scale: gen.ScaleTiny, Seed: wbSeed, H: 10})
		if err != nil {
			t.Fatal(err)
		}
		p := w.Problem(incentive.Linear, 0.3)
		eng := w.Engine()
		opt := core.Options{Epsilon: 0.1, Seed: 7, MaxThetaPerAd: 400_000}
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
		t.Logf("workbench seed %d: revenue ratio %.4f, seed cost TI-CSRM %.1f vs TI-CARM %.1f",
			wbSeed, evCS.TotalRevenue()/evCA.TotalRevenue(), evCS.TotalSeedCost(), evCA.TotalSeedCost())
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
				t.Errorf("%s workbench seed %d: engine estimate %.1f deviates %.1f%% from MC %.1f",
					pair.name, wbSeed, est, 100*rel, mc)
			}
		}
	}
	t.Logf("TI-CSRM/TI-CARM mean revenue ratio %.4f", csRev/caRev)
	if csCost >= caCost {
		t.Errorf("TI-CSRM mean seed cost %.1f not below TI-CARM %.1f", csCost/instances, caCost/instances)
	}
	if csRev < 0.98*caRev {
		t.Errorf("TI-CSRM mean revenue %.1f more than 2%% below TI-CARM %.1f",
			csRev/instances, caRev/instances)
	}
}
