// Windowtuning: the revenue/running-time trade-off of TI-CSRM's window
// size w (a miniature of the paper's Figure 4).
//
// TI-CSRM must scan all candidate nodes to find the best marginal-revenue
// per marginal-payment rate; restricting the scan to the w nodes with the
// highest marginal coverage trades revenue for speed. w=1 collapses to
// TI-CARM's selection rule; w=n is the full algorithm.
//
//	go run ./examples/windowtuning
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	w, err := repro.NewWorkbench("epinions", repro.Params{
		Scale: repro.ScaleTiny,
		Seed:  5,
		H:     6,
	})
	if err != nil {
		log.Fatal(err)
	}
	p := w.Problem(repro.Linear, 0.3)
	n := int(p.Graph.NumNodes())
	eng := w.Engine()
	ctx := context.Background()

	fmt.Printf("window sweep on %d nodes (w=0 means full window)\n\n", n)
	fmt.Printf("%8s  %12s  %10s\n", "window", "revenue", "time")
	for _, win := range []int{1, 8, 32, 128, 0} {
		start := time.Now()
		alloc, _, err := eng.Solve(ctx, p, repro.Options{
			Mode:          repro.ModeCostSensitive,
			Epsilon:       0.3,
			Seed:          5,
			Window:        win,
			MaxThetaPerAd: 50000,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		ev, err := eng.Evaluate(ctx, p, alloc, 1500, 2, 13)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d", win)
		if win == 0 {
			label = "N"
		}
		fmt.Printf("%8s  %12.1f  %10v\n", label, ev.TotalRevenue(), elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nexpected shape (paper Fig. 4): revenue grows with w; the full")
	fmt.Println("window is the most accurate and the most expensive.")
}
