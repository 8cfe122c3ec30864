package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// engineCase is one decoded differential-fuzz input: a small digraph,
// a state pair, bank clustering and an error budget.
type engineCase struct {
	g        *graph.Digraph
	a, b     opinion.State
	clusters []int
	eps      float64
}

// decodeEngineCase reads, in order: the user count n (2..48; a first
// byte below 23 gives 2..24, so a corpus written for that range
// decodes unchanged), the edge count (0..4n, so a graph may have no
// edges at all), the cluster mode (nil for singleton banks, u mod k,
// or one label byte per user), k, the budget index, and the number of
// flips from A to B (0 gives an identical pair); then A's opinions,
// the flips as (user, opinion) pairs, the edges as (tail, head) pairs,
// and any per-user labels. Missing bytes read as zero.
func decodeEngineCase(data []byte) engineCase {
	in := data
	next := func(mod int) int {
		if len(in) == 0 {
			return 0
		}
		v := int(in[0])
		in = in[1:]
		return v % mod
	}
	n := 2 + next(47)
	m := next(4*n + 1)
	mode, k := next(3), 1+next(4)
	eps := []float64{0, 0, 0.01, 0.1, 0.5, 2, 10}[next(7)]
	flips := next(n + 1)
	c := engineCase{a: opinion.NewState(n), eps: eps}
	for i := range c.a {
		c.a[i] = opinion.Opinion(next(3) - 1)
	}
	c.b = c.a.Clone()
	for f := 0; f < flips; f++ {
		u := next(n)
		c.b[u] = opinion.Opinion(next(3) - 1)
	}
	bld := graph.NewBuilder(n)
	for e := 0; e < m; e++ {
		bld.AddEdge(next(n), next(n))
	}
	c.g = bld.Build()
	switch mode {
	case 1:
		c.clusters = make([]int, n)
		for u := range c.clusters {
			c.clusters[u] = u % k
		}
	case 2:
		c.clusters = make([]int, n)
		for u := range c.clusters {
			c.clusters[u] = next(k)
		}
	}
	return c
}

// FuzzEngineMatchesOracle is the differential check of the whole term
// pipeline on small random inputs: the exact Engine is bit-identical at
// one and two workers and in a Series (whose terms may run partial
// rows or the K-nearest search), and matches the dense oracle (the network route
// under clustered banks), a positive budget's envelope contains the
// exact value, and Explain's Result keeps its envelope and its moves
// add up to each term.
func FuzzEngineMatchesOracle(f *testing.F) {
	f.Fuzz(checkEngineCase)
}

func checkEngineCase(t *testing.T, data []byte) {
	{
		c := decodeEngineCase(data)
		opts := DefaultOptions()
		opts.Clusters = c.clusters
		ctx := context.Background()

		var exact [2]Result
		for i, workers := range []int{1, 2} {
			eng := NewEngine(c.g, opts, EngineConfig{Workers: workers})
			r, err := eng.Distance(ctx, c.a, c.b)
			eng.Close()
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			exact[i] = r
		}
		if !reflect.DeepEqual(exact[0], exact[1]) {
			t.Fatalf("1 worker %+v != 2 workers %+v", exact[0], exact[1])
		}
		// A Series retains no rows, so its terms whose banks absorb run
		// partial rows or the K-nearest search; it must match Distance
		// bit for bit.
		eng := NewEngine(c.g, opts, EngineConfig{Workers: 1})
		series, err := eng.SeriesEps(ctx, []opinion.State{c.a, c.b}, 0)
		eng.Close()
		if err != nil {
			t.Fatalf("series: %v", err)
		}
		if !reflect.DeepEqual(series[0], exact[0]) {
			t.Fatalf("series %+v != distance %+v", series[0], exact[0])
		}
		// The dense oracle implements eq. 4's cluster banks, which price
		// a bank at cluster grain; the routes price it at user grain
		// (docs/ARCHITECTURE.md, "Coarse clusters"). Clustered inputs
		// are therefore checked against the network route, an
		// independent assembly over the graph itself.
		ex := exact[0].SND
		name, oracle := "dense", viaDense
		if c.clusters != nil {
			name, oracle = "network route", viaNetwork
		}
		want, err := distanceVia(c.g, c.a, c.b, opts, oracle)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		if math.Abs(ex-want.SND) > 1e-6*math.Max(1, want.SND) {
			t.Fatalf("engine %v != %s %v (terms %v vs %v)", ex, name, want.SND, exact[0].Terms, want.Terms)
		}

		if c.eps > 0 {
			eng := NewEngine(c.g, opts, EngineConfig{Workers: 2})
			r, err := eng.DistanceEps(ctx, c.a, c.b, c.eps)
			eng.Close()
			if err != nil {
				t.Fatalf("eps %v: %v", c.eps, err)
			}
			slack := 1e-9 * (1 + ex)
			if !(r.LB <= r.SND && r.SND <= r.UB) || r.UB-r.LB > c.eps {
				t.Fatalf("eps %v: SND %v, envelope [%v, %v]", c.eps, r.SND, r.LB, r.UB)
			}
			if r.LB > ex+slack || r.UB < ex-slack {
				t.Fatalf("eps %v: exact %v outside envelope [%v, %v]", c.eps, ex, r.LB, r.UB)
			}
		}

		res, plans, err := Explain(ctx, c.g, c.a, c.b, opts)
		if err != nil {
			t.Fatalf("explain: %v", err)
		}
		if !(res.LB <= res.SND && res.SND <= res.UB) {
			t.Fatalf("explain: SND %v outside envelope [%v, %v]", res.SND, res.LB, res.UB)
		}
		if math.Abs(res.SND-ex) > 1e-6*math.Max(1, ex) {
			t.Fatalf("explain SND %v != engine %v", res.SND, ex)
		}
		for i, plan := range plans {
			total := 0.0
			for _, mv := range plan.Moves {
				total += mv.Amount * float64(mv.UnitCost)
			}
			if math.Abs(total-plan.Value) > 1e-6*math.Max(1, plan.Value) {
				t.Fatalf("explain term %d: moves total %v != term value %v", i, total, plan.Value)
			}
		}
	}
}
