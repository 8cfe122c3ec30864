package core

import (
	"math"
	"time"

	"snd/internal/emd"
	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/sssp"
)

// This file implements the certified approximation tier of the
// bipartite pipeline. Three gates run in order of increasing cost,
// each producing a sound envelope [lb, ub] around the scaled integer
// optimum and deciding the term — at the feasible upper end — as soon
// as ub - lb fits the term's scaled error budget:
//
//  1. Multilevel cluster-bank pass (termApproxMultilevel): instead of
//     one shortest-path run per residual source, the fan-out runs
//     column-wise from the *small* side of the reduced instance — one
//     run per residual opposite user plus one multi-source run per
//     cluster bank, on the transpose graph. A bank's aggregated ground
//     distance is gamma plus the minimum over its members, which is
//     exactly what a multi-source run computes, so the coarsened
//     S x (C + banks) cost matrix is exact while the instance collapses
//     from one row per source to one run per column. The row-bound
//     construction then certifies an envelope; a term whose gap exceeds
//     the tolerance is refined *on the same matrix* — first by the
//     entropic solver, finally by an exact min-cost-flow solve — so the
//     expensive per-source fan-out is never paid once this pass is
//     profitable.
//
//  2. Relaxed row gate (in termBipartiteNetwork): the exact pipeline's
//     LB/UB scan over the full fan-out rows, accepting ub - lb within
//     budget instead of requiring equality.
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
// proceeds with the exact per-source fan-out (gates 2 and 3 ride on
// that path).
func termApproxMultilevel(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx, budgetScaled int64) (termVal, bool, error) {
	// Orientation: sources is the side the exact fan-out would run one
	// SSSP per entity for; columns live on the other side. Column runs
	// go over the transpose of the source graph, so a run from column
	// entity c settles d(s -> c) for every source s at once.
	colGraph := g.Reverse()
	sources, opposite := red.S, red.C
	reversed := red.banksOnSupplier
	if reversed {
		colGraph = g
		sources, opposite = red.C, red.S
	}
	nS, nOpp, nB := len(sources), len(opposite), len(red.banks)
	cols := nOpp + nB
	if nS == 0 || cols == 0 {
		return termVal{}, false, nil
	}

	// Profitability: every column costs one run (a full-graph one for
	// banks), against one per source on the exact path. The margin is
	// wider when the bank members and opposite users together are few
	// relative to the graph, a proxy for the exact fan-out's runs being
	// cheap partial balls. The proxy counts every bank member, while the
	// exact fan-out's density test counts columns (a bank is one column,
	// settled by its nearest member), so the two can disagree. The
	// proxy stays as it is: it picks which certified envelope approx
	// returns, so retuning it moves results and needs its own benchmark
	// change.
	totalTargets := nOpp
	for _, b := range red.banks {
		totalTargets += len(b.members)
	}
	pruneLimit := g.N() / 64
	if pruneLimit < 64 {
		pruneLimit = 64
	}
	margin := 2
	if totalTargets <= pruneLimit {
		margin = 6
	}
	if margin*cols >= nS {
		return termVal{}, false, nil
	}

	maxCost := o.Costs.MaxCost()
	inf := infCost(g.N(), maxCost, o.EscapeHops)
	sc := tc.sc
	if sc == nil {
		sc = &scratch{}
	}
	colW := tc.groundWeights(g, spec, o, !reversed)
	if tc.stats != nil {
		tc.stats.terms.Add(1)
	}
	capDist := func(d int64) int64 {
		if d >= sssp.Unreachable || d > inf {
			return inf
		}
		return d
	}

	// mat[i*cols+j]: capped ground distance from sources[i] to column j
	// — opposite entity j for j < nOpp, then one aggregated column per
	// bank holding its min-member distance (gamma is added by the
	// consumers below, mirroring the exact pipeline's bankDist).
	mat := make([]int64, nS*cols)
	fill := func(j int, dist []int64) {
		for i, s := range sources {
			mat[i*cols+j] = capDist(dist[s])
		}
	}
	runs := 0
	fanStart := time.Now()
	var colBuf []int64
	for j, c := range opposite {
		if err := tc.cancelled(); err != nil {
			return termVal{}, false, err
		}
		// A column for a residual opposite entity is exactly a
		// transpose-direction row, so the ground provider's cache and
		// goal pruning both apply to it.
		if tc.prov != nil && !o.ablated(ablateGoalPrune) {
			if cap(colBuf) < nS {
				colBuf = make([]int64, nS)
			}
			colBuf = colBuf[:nS]
			if tc.prov.rowGoals(tc.refHash, spec.ref, spec.op, !reversed, c, colW, sources, nil, colBuf, !tc.series, sc) {
				for i, d := range colBuf {
					mat[i*cols+j] = capDist(d)
				}
				runs++
				continue
			}
		}
		sssp.DijkstraFrontierInto(colGraph, colW, int(c), o.Heap, maxCost, &sc.res, &sc.fr)
		fill(j, sc.res.Dist)
		runs++
	}
	for b := range red.banks {
		if err := tc.cancelled(); err != nil {
			return termVal{}, false, err
		}
		sssp.MultiSourceFrontierInto(colGraph, colW, red.banks[b].members, o.Heap, maxCost, &sc.res, &sc.fr)
		fill(nOpp+b, sc.res.Dist)
		runs++
	}
	if tc.stats != nil {
		addPhase(&tc.stats.ssspNanos, fanStart)
	}

	// Certification: the exact pipeline's bound construction over the
	// coarsened matrix. Each bank is one aggregated column at nOpp+b,
	// the layout the exact fan-out's rows use.
	boundStart := time.Now()
	rows := make([][]int64, nS)
	for i := range rows {
		rows[i] = mat[i*cols : (i+1)*cols]
	}
	ident := func(d int64) int64 { return d } // mat is pre-capped
	lb, ub := termBoundsFromRows(red, rows, nOpp, o.Gamma, ident, sc)
	if tc.stats != nil {
		addPhase(&tc.stats.boundNanos, boundStart)
	}
	fs := float64(red.scale)
	if lb == ub {
		if tc.stats != nil {
			tc.stats.termsBoundDecided.Add(1)
		}
		return termVal{val: float64(ub) / fs, lb: float64(lb) / fs, ub: float64(ub) / fs, runs: runs}, true, nil
	}
	if ub != math.MaxInt64 && ub-lb <= budgetScaled {
		if tc.stats != nil {
			tc.stats.termsApproxCoarse.Add(1)
		}
		return termVal{val: float64(ub) / fs, lb: float64(lb) / fs, ub: float64(ub) / fs, runs: runs}, true, nil
	}

	// Refinement, still on the coarsened matrix: entropic envelope
	// first, exact flow solve last. distSC/bankDist follow the exact
	// pipeline's index convention (S index, C index).
	var distSC func(i, j int) int64
	if reversed {
		distSC = func(i, j int) int64 { return mat[j*cols+i] }
	} else {
		distSC = func(i, j int) int64 { return mat[i*cols+j] }
	}
	bankDist := func(b, k int) int64 { return o.Gamma + mat[k*cols+nOpp+b] }
	if budgetScaled > 0 {
		rowsUB := ub
		if ub == math.MaxInt64 {
			rowsUB = math.MaxInt64
		}
		if tv, ok := termSinkhorn(red, distSC, bankDist, lb, rowsUB, budgetScaled, runs, tc); ok {
			return tv, true, nil
		}
	}

	// Exact flow solve over the aggregated instance: identical costs
	// and capacities to the exact pipeline's assembly, so the optimum —
	// and the returned value — matches a full per-source solve.
	nSred, nC := len(red.S), len(red.C)
	var nw *flow.Network
	if red.banksOnSupplier {
		nw = sc.network(nSred+nB+nC, (nSred+nB)*nC)
		for i := 0; i < nSred; i++ {
			nw.SetExcess(i, red.scale)
		}
		for b := 0; b < nB; b++ {
			nw.SetExcess(nSred+b, red.banks[b].units)
		}
		for j := 0; j < nC; j++ {
			nw.SetExcess(nSred+nB+j, -red.scale)
		}
		for i := 0; i < nSred; i++ {
			for j := 0; j < nC; j++ {
				nw.AddArc(i, nSred+nB+j, red.scale, distSC(i, j))
			}
		}
		for b := 0; b < nB; b++ {
			for j := 0; j < nC; j++ {
				capacity := red.banks[b].units
				if red.scale < capacity {
					capacity = red.scale
				}
				nw.AddArc(nSred+b, nSred+nB+j, capacity, bankDist(b, j))
			}
		}
	} else {
		nw = sc.network(nSred+nC+nB, nSred*(nC+nB))
		for i := 0; i < nSred; i++ {
			nw.SetExcess(i, red.scale)
		}
		for j := 0; j < nC; j++ {
			nw.SetExcess(nSred+j, -red.scale)
		}
		for b := 0; b < nB; b++ {
			nw.SetExcess(nSred+nC+b, -red.banks[b].units)
		}
		for i := 0; i < nSred; i++ {
			for j := 0; j < nC; j++ {
				nw.AddArc(i, nSred+j, red.scale, distSC(i, j))
			}
			for b := 0; b < nB; b++ {
				capacity := red.banks[b].units
				if red.scale < capacity {
					capacity = red.scale
				}
				nw.AddArc(i, nSred+nC+b, capacity, bankDist(b, i))
			}
		}
	}
	solveStart := time.Now()
	cost, _, err := solveBipartite(tc.ctx, nw, o.Heap, inf+o.Gamma)
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, solveStart)
		if err == nil {
			tc.stats.flowSolves.Add(1)
		}
	}
	if err != nil {
		return termVal{}, false, err
	}
	return exactVal(float64(cost)/float64(red.scale), runs), true, nil
}

// termSinkhorn is gate 3: the entropic envelope over the reduced
// transportation instance. The arc capacities of the assembled flow
// network (scale on opposite arcs, min(units, scale) on bank arcs) are
// vacuous — each equals or exceeds the min of its row and column
// marginal — so the instance is a pure transportation problem and the
// rounded plan's cost bounds the same optimum the flow solve would
// return. runs is the SSSP charge already incurred (the rows this
// stage's bounds complement were produced by the exact fan-out).
func termSinkhorn(red reduction, distSC func(i, j int) int64, bankDist func(b, k int) int64, rowsLB, rowsUB, budgetScaled int64, runs int, tc termCtx) (termVal, bool) {
	nS, nC, nB := len(red.S), len(red.C), len(red.banks)
	var sSide, tSide int
	if red.banksOnSupplier {
		sSide, tSide = nS+nB, nC
	} else {
		sSide, tSide = nS, nC+nB
	}
	if sSide == 0 || tSide == 0 {
		return termVal{}, false
	}
	entries := sSide * tSide
	if entries < sinkhornMinEntries || entries > sinkhornMaxEntries {
		return termVal{}, false
	}
	supply := make([]float64, sSide)
	demand := make([]float64, tSide)
	var cost emd.DistFn
	if red.banksOnSupplier {
		for i := 0; i < nS; i++ {
			supply[i] = float64(red.scale)
		}
		for b := 0; b < nB; b++ {
			supply[nS+b] = float64(red.banks[b].units)
		}
		for j := 0; j < nC; j++ {
			demand[j] = float64(red.scale)
		}
		cost = func(i, j int) float64 {
			if i < nS {
				return float64(distSC(i, j))
			}
			return float64(bankDist(i-nS, j))
		}
	} else {
		for i := 0; i < nS; i++ {
			supply[i] = float64(red.scale)
		}
		for j := 0; j < nC; j++ {
			demand[j] = float64(red.scale)
		}
		for b := 0; b < nB; b++ {
			demand[nC+b] = float64(red.banks[b].units)
		}
		cost = func(i, j int) float64 {
			if j < nC {
				return float64(distSC(i, j))
			}
			return float64(bankDist(j-nC, i))
		}
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
	fs := float64(red.scale)
	return termVal{val: ub / fs, lb: lb / fs, ub: ub / fs, runs: runs}, true
}
