package core

import (
	"math"
	"time"

	"snd/internal/emd"
)

// This file implements the certified approximation tier of the
// bipartite pipeline. A term with an error budget runs the exact term
// pipeline (termBipartite), whose stages then admit an envelope
// [lb, ub] around the scaled integer optimum and decide the term — at
// the feasible upper end — as soon as ub - lb fits the term's scaled
// error budget:
//
//  1. The exact column fan-out (byColumns): past columnFanOutRatio
//     sources per column the rows are filled by column — one search per
//     residual opposite user, and one multi-source search per cluster
//     bank over the transpose — also where the row side would retain
//     rows. Budgeted rows are always complete (partialRows takes no
//     budgeted term), so every bound below reads true distances.
//
//  2. Relaxed row gate (in solveTerm): the exact pipeline's LB/UB scan
//     over the rows, accepting ub - lb within budget instead of
//     requiring equality. A decision over rows filled by column counts
//     as coarse (TermsApproxCoarse), any other as gap.
//
//  3. Entropic envelope (termSinkhorn): on instances where the exact
//     flow solve is the bottleneck, the Sinkhorn solver of package emd
//     yields a rounded feasible plan (upper) and a repaired dual
//     (lower), combined with the row bounds.
//
// A term no gate decides falls through to the exact solve, so the
// certification contract — the exact value lies in the returned
// envelope, whose width is within budget — holds unconditionally.
// Budgeted terms neither read nor store warm bases (see runTerms): a
// budgeted result does not depend on what the engine solved before.

// Entropic-stage instance gates: below the floor the exact solvers are
// effectively free, above the ceiling the dense sweep's memory and
// time are worse than the flow solve it would replace.
const (
	sinkhornMinEntries = 4096
	sinkhornMaxEntries = 1 << 21
)

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
