package rrset_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// A Stream draws one ad's RR sets on a shared 4-worker scratch pool; for
// a fixed (seed, Workers, BatchSize) the emitted set sequence never
// depends on goroutine scheduling. On the certain star graph every RR
// set contains the hub.
func ExampleStream() {
	b := graph.NewBuilder(5, 4)
	for v := int32(1); v <= 4; v++ {
		b.AddEdge(0, v) // hub 0 influences everyone with probability 1
	}
	g := b.Build()
	probs := rrset.NewSampleProbs(g, []float32{1, 1, 1, 1})

	pool := rrset.NewPool(g, rrset.PoolOptions{Workers: 4, BatchSize: 64})
	sets, withHub := 0, 0
	pool.NewStream(probs, 1).SampleN(1000, func(nodes []int32) {
		sets++
		for _, v := range nodes {
			if v == 0 {
				withHub++
			}
		}
	})
	fmt.Println("sets:", sets)
	fmt.Println("sets containing the hub:", withHub)
	// Output:
	// sets: 1000
	// sets containing the hub: 1000
}

// Greedy max-coverage on a view over a sequentially sampled universe:
// choosing the hub covers every live RR set, so one seed saturates the
// estimate.
func ExampleView_CoverBy() {
	b := graph.NewBuilder(4, 3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	probs := []float32{1, 1, 1}

	u := rrset.NewUniverse(g.NumNodes())
	u.AddFrom(rrset.NewSampler(g, probs, xrand.New(7)), 400)
	view := rrset.NewView(u)

	seed, _ := view.MaxCovCount(nil)
	covered := view.CoverBy(seed)
	fmt.Println("seed:", seed)
	fmt.Println("covered everything:", covered == view.Size() && view.NumCovered() == view.Size())
	// Output:
	// seed: 0
	// covered everything: true
}
