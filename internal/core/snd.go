package core

import (
	"context"
	"fmt"

	"snd/internal/emd"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// Distance computes SND(a, b) over network g (eq. 3): the average of
// four EMD* terms, one per (opinion, ground-state) combination, which
// makes the measure symmetric in its arguments even though each ground
// distance is directed and state-dependent.
func Distance(g *graph.Digraph, a, b opinion.State, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	specs := eqSpecs(a, b)
	var res Result
	res.NDelta = a.DiffCount(b)
	// The standalone path honors Options.Epsilon through the row-gate
	// and entropic stages; the coarse cluster pass needs an Engine's
	// partition and is engine-only.
	tc := termCtx{}
	if opts.Epsilon > 0 {
		tc.epsTerm = epsTermBudget(opts.Epsilon)
	}
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

func refName(term int) string {
	if term < 2 {
		return "G1"
	}
	return "G2"
}

// Direct computes SND the way a general-purpose solver would (the
// "CPLEX" baseline of Fig. 11): full Johnson all-pairs ground
// distances and the un-reduced dense EMD* transportation problem
// solved with the transportation simplex. Exact but super-cubic;
// intended for small n and for validating the routes.
func Direct(g *graph.Digraph, a, b opinion.State, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	specs := eqSpecs(a, b)
	var res Result
	res.NDelta = a.DiffCount(b)
	maxCost := opts.Costs.MaxCost()
	inf := infCost(g.N(), maxCost, opts.EscapeHops)
	for i, spec := range specs {
		w := opts.Costs.EdgeCosts(g, spec.ref, spec.op)
		d := sssp.Johnson(g, w, opts.Heap, maxCost)
		distFn := func(x, y int) float64 {
			v := d[x][y]
			if v >= sssp.Unreachable || v > inf {
				return float64(inf)
			}
			return float64(v)
		}
		p := spec.p.Histogram(spec.op)
		q := spec.q.Histogram(spec.op)
		v, err := emd.StarUnreduced(p, q, distFn, emd.StarConfig{
			Clusters:   opts.Clusters,
			GammaFloor: float64(opts.Gamma),
			Solver:     emd.SolverSimplex,
		})
		if err != nil {
			return Result{}, fmt.Errorf("core: direct term %d: %w", i, err)
		}
		res.Terms[i] = v
		res.SSSPRuns += g.N()
		res.EnginesUsed[i] = EngineDense
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	res.LB, res.UB = res.SND, res.SND
	return res, nil
}

// Series computes the distances between every adjacent pair of a state
// series: out[i] = SND(states[i], states[i+1]). It runs on a transient
// Engine (one worker per CPU), released before returning; construct an
// Engine directly to control worker count and cache budget across many
// series.
func Series(ctx context.Context, g *graph.Digraph, states []opinion.State, opts Options) ([]float64, error) {
	e := NewEngine(g, opts, EngineConfig{})
	defer e.Close()
	return e.Series(ctx, states)
}
