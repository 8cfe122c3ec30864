package main

import (
	"fmt"
	"time"

	"snd"
	"snd/internal/opinion"
	"snd/internal/pqueue"
)

// runAblation times and values the configuration choices on one fixed
// instance: Dijkstra heap, ground-cost model, bank allocation, and bank
// distance gamma. Values must agree across heaps (the choice is exact);
// models, banks and gamma legitimately change the measure. The engine
// picks its route and flow solver itself (docs/PERFORMANCE.md,
// "Strategy selection"); the routes column shows which it took.
func runAblation(sc scale, seed int64) {
	n := sc.fig10N
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.3, Seed: seed + 70,
	})
	ev := snd.NewEvolution(g, n/10, seed+71)
	a := ev.Step(0.3, 0.02)
	b := ev.Step(0.3, 0.02)
	fmt.Printf("instance: n=%d, m=%d, n-delta=%d\n\n", g.N(), g.M(), a.DiffCount(b))

	run := func(group, name string, opts snd.Options) {
		start := time.Now()
		res, err := distanceOnce(g, a, b, opts)
		if err != nil {
			fatalf("ablation %s/%s: %v", group, name, err)
		}
		fmt.Printf("%-10s %-16s snd=%-12.1f %-10v sssp=%-6d routes=%v\n",
			group, name, res.SND, time.Since(start).Round(time.Millisecond), res.SSSPRuns, res.EnginesUsed)
	}

	for _, heap := range []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix} {
		opts := snd.DefaultOptions()
		opts.Heap = heap
		run("heap", heap.String(), opts)
	}
	fmt.Println()
	for _, model := range []opinion.PenaltyModel{
		opinion.DefaultAgnostic, opinion.DefaultICC, opinion.DefaultLinearThreshold,
	} {
		opts := snd.DefaultOptions()
		opts.Costs = opinion.DefaultGroundCosts(model)
		run("model", model.Name(), opts)
	}
	fmt.Println()
	bankCases := []struct {
		name     string
		clusters []int
	}{
		{"per-user", nil},
		{"64-cluster", snd.BFSClusterLabels(g, 64)},
		{"global", make([]int, g.N())},
	}
	for _, c := range bankCases {
		opts := snd.DefaultOptions()
		opts.Clusters = c.clusters
		run("banks", c.name, opts)
	}
	fmt.Println()
	for _, gamma := range []int64{1, 4, 8, 17} {
		opts := snd.DefaultOptions()
		opts.Gamma = gamma
		run("gamma", fmt.Sprintf("gamma=%d", gamma), opts)
	}
}
