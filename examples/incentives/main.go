// Incentives: how the four seed-incentive models of the paper (linear,
// constant, sublinear, superlinear) change what the host should do — a
// miniature of Figures 2 and 3.
//
// Under constant incentives every user costs the same, so cost-sensitivity
// buys nothing; under superlinear incentives star influencers are
// overpriced and the cost-sensitive strategy wins big by recruiting many
// mid-tier users instead.
//
//	go run ./examples/incentives
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	w, err := repro.NewWorkbench("epinions", repro.Params{
		Scale: repro.ScaleTiny,
		Seed:  3,
		H:     6,
	})
	if err != nil {
		log.Fatal(err)
	}

	cases := []struct {
		kind  repro.IncentiveKind
		alpha float64
	}{
		{repro.Linear, 0.3},
		{repro.Constant, 8},
		{repro.Sublinear, 13},
		{repro.Superlinear, 0.0008},
	}
	opt := repro.Options{Epsilon: 0.15, Seed: 3, MaxThetaPerAd: 200000}
	ctx := context.Background()
	eng := w.Engine()

	fmt.Printf("%-12s  %-8s  %12s  %12s  %14s  %14s\n",
		"incentive", "alpha", "CARM-revenue", "CSRM-revenue", "CARM-seedcost", "CSRM-seedcost")
	for _, c := range cases {
		p := w.Problem(c.kind, c.alpha)
		caOpt := opt
		caOpt.Mode = repro.ModeCostAgnostic
		ca, _, err := eng.Solve(ctx, p, caOpt)
		if err != nil {
			log.Fatal(err)
		}
		csOpt := opt
		csOpt.Mode = repro.ModeCostSensitive
		cs, _, err := eng.Solve(ctx, p, csOpt)
		if err != nil {
			log.Fatal(err)
		}
		evCA, err := eng.Evaluate(ctx, p, ca, 1500, 2, 11)
		if err != nil {
			log.Fatal(err)
		}
		evCS, err := eng.Evaluate(ctx, p, cs, 1500, 2, 11)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12v  %-8.4g  %12.1f  %12.1f  %14.1f  %14.1f\n",
			c.kind, c.alpha,
			evCA.TotalRevenue(), evCS.TotalRevenue(),
			evCA.TotalSeedCost(), evCS.TotalSeedCost())
	}
	fmt.Println("\nexpected shape (paper §5): CSRM ≥ CARM everywhere, equal under")
	fmt.Println("constant incentives, with the largest seed-cost gap under superlinear.")
}
