package core

import (
	"math"
	"time"

	"snd/internal/emd"
	"snd/internal/graph"
)

// This file implements the certified approximation tier of the
// bipartite pipeline. Three gates run in order of increasing cost,
// each producing a sound envelope [lb, ub] around the scaled integer
// optimum and deciding the term — at the feasible upper end — as soon
// as ub - lb fits the term's scaled error budget:
//
//  1. Multilevel cluster-bank pass (termApproxMultilevel): the term's
//     fan-out runs on the column side (see fanOut) — one run per
//     residual opposite user plus one multi-source run per cluster
//     bank, on the transpose graph — whenever the pass's own margin
//     proxy finds that profitable, also where the exact pipeline's rule
//     would keep the row side. A bank's aggregated ground distance is
//     gamma plus the minimum over its members, which is exactly what a
//     multi-source run computes, so the S x (C + banks) cost matrix is
//     the exact fan-out's rows matrix while the runs collapse from one
//     per source to one per column. It goes to the same tail as the
//     exact pipeline (solveTerm): the row bounds certify an envelope,
//     and a term whose gap exceeds the tolerance is refined by the
//     entropic solver, finally by an exact min-cost-flow solve — so
//     the per-source fan-out is never paid once this pass is
//     profitable.
//
//  2. Relaxed row gate (in solveTerm): the exact pipeline's LB/UB scan
//     over the full fan-out rows, accepting ub - lb within budget
//     instead of requiring equality.
//
//  3. Entropic envelope (termSinkhorn): on instances where the exact
//     flow solve is the bottleneck, the Sinkhorn solver of package emd
//     yields a rounded feasible plan (upper) and a repaired dual
//     (lower), combined with the row bounds.
//
// A term no gate decides falls through to the exact solve, so the
// certification contract — the exact value lies in the returned
// envelope, whose width is within budget — holds unconditionally.

// Entropic-stage instance gates: below the floor the exact solvers are
// effectively free, above the ceiling the dense sweep's memory and
// time are worse than the flow solve it would replace.
const (
	sinkhornMinEntries = 4096
	sinkhornMaxEntries = 1 << 21
)

// termApproxMultilevel is gate 1: the cluster-bank column fan-out. It
// reports ok when it took the term over — on ok the returned termVal
// carries a certified envelope (degenerate when the refinement chain
// ended in the exact flow solve). Not-ok means the pass judged the
// column orientation unprofitable and spent nothing; the caller
// proceeds with the exact pipeline, whose fan-out picks its side by
// its own rule (gates 2 and 3 ride on that path).
func termApproxMultilevel(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx, budgetScaled int64) (termVal, bool, error) {
	bp := newBipartite(red, o.Gamma, infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops))
	nS, nOpp, cols := len(bp.sources), bp.nOpp(), bp.nCols()
	if nS == 0 || cols == 0 {
		return termVal{}, false, nil
	}

	// Profitability: every column costs one run, against one per source
	// on the exact path. The margin is wider when the bank members and
	// opposite users together are few relative to the graph, a proxy
	// for the exact fan-out's runs being cheap partial balls. The proxy
	// counts every bank member, while the exact fan-out's rules count
	// columns (a bank is one column, settled by its nearest member), so
	// the two can disagree. The proxy stays as it is: it picks which
	// certified envelope approx returns, so retuning it moves results
	// and needs its own benchmark change.
	totalTargets := nOpp
	for _, b := range red.banks {
		totalTargets += len(b.members)
	}
	margin := 2
	if totalTargets <= pruneLimit(g.N()) {
		margin = 6
	}
	if margin*cols >= nS {
		return termVal{}, false, nil
	}

	if tc.stats != nil {
		tc.stats.terms.Add(1)
	}
	if _, err := tc.fanOutAs(g, spec, o, &bp, planColumns); err != nil {
		return termVal{}, false, err
	}

	// The coarsened matrix is the exact fan-out's rows matrix, so the
	// term takes the exact pipeline's tail from here: certification by
	// the row bounds, refinement by the entropic envelope, and finally
	// the exact flow solve, whose optimum matches a full per-source
	// solve. Approx terms neither read nor store warm bases.
	tv, _, err := tc.solveTerm(&bp, budgetScaled, true, nil)
	tv.runs = cols
	return tv, true, err
}

// termSinkhorn is gate 3: the entropic envelope over bp. The
// assembled arc capacities are vacuous — each is the min of its row and
// column marginal — so the instance is a pure transportation problem
// and the rounded plan's cost bounds the same optimum the flow solve
// would return.
func (tc termCtx) termSinkhorn(bp *bipartite, rowsLB, rowsUB, budgetScaled int64) (termVal, bool) {
	nSup, nDem := bp.shape()
	if nSup == 0 || nDem == 0 {
		return termVal{}, false
	}
	entries := nSup * nDem
	if entries < sinkhornMinEntries || entries > sinkhornMaxEntries {
		return termVal{}, false
	}
	supply := make([]float64, nSup)
	for u := range supply {
		supply[u] = float64(bp.supMass(u))
	}
	demand := make([]float64, nDem)
	for v := range demand {
		demand[v] = float64(bp.demMass(v))
	}
	cost := func(u, v int) float64 {
		k, j := bp.cell(u, v)
		return float64(bp.cost(k, j))
	}
	start := time.Now()
	slb, sub, err := emd.SinkhornBounds(supply, demand, cost, float64(budgetScaled), emd.SinkhornConfig{})
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, start)
	}
	if err != nil {
		return termVal{}, false
	}
	lb := float64(rowsLB)
	if slb > lb {
		lb = slb
	}
	ub := math.Inf(1)
	if rowsUB != math.MaxInt64 {
		ub = float64(rowsUB)
	}
	if sub < ub {
		ub = sub
	}
	if !(ub-lb <= float64(budgetScaled)) {
		return termVal{}, false
	}
	if tc.stats != nil {
		tc.stats.termsApproxSinkhorn.Add(1)
	}
	fs := float64(bp.red.scale)
	return termVal{val: ub / fs, lb: lb / fs, ub: ub / fs}, true
}
