package core

import (
	"context"
	"fmt"

	"snd/internal/cluster"
	"snd/internal/emd"
	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// termDense is the test oracle: full Johnson all-pairs ground distance
// plus dense EMD*, with none of the production reduction's machinery.
func termDense(g *graph.Digraph, spec termSpec, o Options) (float64, error) {
	w := o.Costs.EdgeCosts(g, spec.ref, spec.op)
	maxCost := o.Costs.MaxCost()
	inf := infCost(g.N(), maxCost, o.EscapeHops)
	d := sssp.Johnson(g, w, o.Heap, maxCost)
	distFn := func(i, j int) float64 {
		v := d[i][j]
		if v >= sssp.Unreachable || v > inf {
			return float64(inf)
		}
		return float64(v)
	}
	clusters := o.Clusters
	if clusters == nil {
		clusters = cluster.Singleton(g.N())
	}
	p := spec.p.Histogram(spec.op)
	q := spec.q.Histogram(spec.op)
	return emd.Star(p, q, distFn, emd.StarConfig{
		Clusters:   clusters,
		GammaFloor: float64(o.Gamma),
	})
}

// termFn evaluates one term with a non-empty reduced instance along a
// fixed strategy, bypassing computeTerm's choice.
type termFn func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error)

// The strategies the production dispatch chooses between, each callable
// directly, plus the oracle.
var (
	viaBipartite termFn = func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		tv, err := termBipartite(g, spec, red, o, termCtx{}, 0)
		return tv.val, err
	}
	viaNetwork termFn = func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		return termNetwork(g, spec, red, o, termCtx{})
	}
	viaDense termFn = func(g *graph.Digraph, spec termSpec, _ reduction, o Options) (float64, error) {
		return termDense(g, spec, o)
	}
)

// solveWith runs one named min-cost-flow solver on nw from zero flow.
func solveWith(nw *flow.Network, costScaling bool, o Options, maxArcCost int64) (int64, error) {
	nw.ResetFlow()
	if costScaling {
		return nw.SolveCostScaling(context.Background())
	}
	return nw.SolveSSP(context.Background(), o.Heap, maxArcCost)
}

// viaBipartiteSolver is the bipartite route with its flow instance
// solved by the named solver instead of solveBipartite's choice.
func viaBipartiteSolver(costScaling bool) termFn {
	return func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		// Collecting arcs (as Explain does) skips the bound gate, so the
		// instance is always assembled.
		_, nw, _, err := termBipartiteNetwork(g, spec, red, o, termCtx{}, true, 0)
		if err != nil {
			return 0, err
		}
		inf := infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops)
		cost, err := solveWith(nw, costScaling, o, inf+o.Gamma)
		return float64(cost) / float64(red.scale), err
	}
}

// viaNetworkSolver is the network route solved by the named solver.
func viaNetworkSolver(costScaling bool) termFn {
	return func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		nw := networkInstance(g, spec, red, o, termCtx{})
		cost, err := solveWith(nw, costScaling, o, o.Costs.MaxCost())
		return float64(cost) / float64(red.scale), err
	}
}

// distanceVia is Distance with every non-empty term evaluated by term.
// It sums the terms in Distance's order, so values compare bit for bit.
func distanceVia(g *graph.Digraph, a, b opinion.State, opts Options, term termFn) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	res := Result{NDelta: a.DiffCount(b)}
	for i, spec := range eqSpecs(a, b) {
		red := reduce(spec, opts.Clusters, g.N())
		if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
			continue
		}
		v, err := term(g, spec, red, opts)
		if err != nil {
			return Result{}, fmt.Errorf("term %d: %w", i, err)
		}
		res.Terms[i] = v
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	return res, nil
}

// strategies names the routes and the oracle for table-driven tests.
var strategies = []struct {
	name string
	term termFn
}{
	{"bipartite", viaBipartite},
	{"network", viaNetwork},
	{"dense", viaDense},
}
