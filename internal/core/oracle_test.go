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
	d := sssp.Johnson(g, w, maxCost)
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

// Distance is the sequential reference for SND(a, b) over network g
// (eq. 3): the four EMD* terms evaluated one after another by
// computeTerm on one scratch arena, with no ground provider, warm ring
// or help pool. Engine batches must match it bit for bit.
func Distance(g *graph.Digraph, a, b opinion.State, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	specs := eqSpecs(a, b)
	var res Result
	res.NDelta = a.DiffCount(b)
	tc := termCtx{sc: &scratch{}}
	var lbs, ubs [4]float64
	for i, spec := range specs {
		tv, err := computeTerm(g, spec, opts, tc)
		if err != nil {
			return Result{}, fmt.Errorf("core: term %d (%s over D(%s)): %w", i, spec.op, refName(i), err)
		}
		res.Terms[i] = tv.val
		lbs[i], ubs[i] = tv.lb, tv.ub
		res.SSSPRuns += tv.runs
		res.EnginesUsed[i] = tv.used
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	res.LB = (lbs[0] + lbs[1] + lbs[2] + lbs[3]) / 2
	res.UB = (ubs[0] + ubs[1] + ubs[2] + ubs[3]) / 2
	return res, nil
}

// unoptimizedDistance is the reference the fan-out's optimizations and
// the bound screens are pinned against. Each term takes the route
// computeTerm picks. A bipartite term fills its rows with fullRows and
// is solved cold by flowSolve: no goal search, partial rows or column
// side, no bound gate, no warm basis and no ground provider. The Result
// matches an exact engine's field for field, SSSPRuns and EnginesUsed
// included; identical states give the zero Result.
func unoptimizedDistance(g *graph.Digraph, a, b opinion.State, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	res := Result{NDelta: a.DiffCount(b)}
	tc := termCtx{sc: &scratch{}}
	for i, spec := range eqSpecs(a, b) {
		red := reduce(spec, opts.Clusters, g.N())
		if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
			continue
		}
		if !bipartiteRoute(red, g.N()) {
			v, err := termNetwork(g, spec, red, opts, tc)
			if err != nil {
				return Result{}, fmt.Errorf("term %d: %w", i, err)
			}
			res.Terms[i], res.EnginesUsed[i] = v, EngineNetwork
			continue
		}
		bp := newBipartite(red, opts.Gamma, infCost(g.N(), opts.Costs.MaxCost(), opts.EscapeHops))
		fullRows(g, spec, opts, &bp)
		tv, _, err := tc.flowSolve(&bp, nil)
		if err != nil {
			return Result{}, fmt.Errorf("term %d: %w", i, err)
		}
		res.Terms[i], res.EnginesUsed[i] = tv.val, EngineBipartite
		res.SSSPRuns += len(bp.sources)
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	res.LB, res.UB = res.SND, res.SND
	return res, nil
}

// fullRows fills bp.rows the unpruned way: one whole-graph
// sssp.DijkstraInto per source (over the transpose when the banks sit
// on the supplier side), an opposite user's column reading its
// distance and a bank's column its nearest member's, every distance
// past bp.inf read as unreachable, as the goal search reports it.
func fullRows(g *graph.Digraph, spec termSpec, o Options, bp *bipartite) {
	srcGraph, w := g, o.Costs.EdgeCosts(g, spec.ref, spec.op)
	if bp.rev {
		srcGraph, w = g.Reverse(), graph.PermuteToReverse(g, w)
	}
	var run sssp.Result
	bp.rows, bp.radius = make([][]int64, len(bp.sources)), nil
	for k, s := range bp.sources {
		sssp.DijkstraInto(srcGraph, w, int(s), o.Costs.MaxCost(), &run)
		row := make([]int64, bp.nCols())
		for j, u := range bp.opposite {
			row[j] = run.Dist[u]
		}
		for b, bank := range bp.red.banks {
			row[bp.nOpp()+b] = sssp.Unreachable
			for _, u := range bank.members {
				row[bp.nOpp()+b] = min(row[bp.nOpp()+b], run.Dist[u])
			}
		}
		for j, d := range row {
			if d > bp.inf {
				row[j] = sssp.Unreachable
			}
		}
		bp.rows[k] = row
	}
}

// termFn evaluates one term with a non-empty reduced instance along a
// fixed strategy, bypassing computeTerm's choice.
type termFn func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error)

// The strategies the production dispatch chooses between, each callable
// directly, plus the oracle.
var (
	viaBipartite termFn = func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		tv, err := termBipartite(g, spec, red, o, termCtx{sc: &scratch{}}, 0)
		return tv.val, err
	}
	viaNetwork termFn = func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		return termNetwork(g, spec, red, o, termCtx{sc: &scratch{}})
	}
	viaDense termFn = func(g *graph.Digraph, spec termSpec, _ reduction, o Options) (float64, error) {
		return termDense(g, spec, o)
	}
)

// solveWith runs one named min-cost-flow solver on nw from zero flow.
func solveWith(nw *flow.Network, costScaling bool) (int64, error) {
	nw.ResetFlow()
	if costScaling {
		return nw.SolveCostScaling(context.Background())
	}
	return nw.SolveSSP(context.Background())
}

// viaBipartiteSolver is the bipartite route with its flow instance
// solved by the named solver instead of solveBipartite's choice.
func viaBipartiteSolver(costScaling bool) termFn {
	return func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		// Explain's solve skips the bound gate, so the instance is
		// always assembled.
		_, nw, _, err := solvedInstance(context.Background(), g, spec, red, o)
		if err != nil {
			return 0, err
		}
		cost, err := solveWith(nw, costScaling)
		return float64(cost) / float64(red.scale), err
	}
}

// viaNetworkSolver is the network route solved by the named solver.
func viaNetworkSolver(costScaling bool) termFn {
	return func(g *graph.Digraph, spec termSpec, red reduction, o Options) (float64, error) {
		nw := networkInstance(g, spec, red, o, termCtx{sc: &scratch{}})
		cost, err := solveWith(nw, costScaling)
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
