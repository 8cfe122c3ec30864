package flow

import (
	"context"
	"fmt"
)

// This file is the warm-start substrate of the flow stage: a solved
// Network retains an optimal basis — routed flow in the residual
// capacities plus node potentials (prices) satisfying complementary
// slackness — and a caller that knows the next instance differs only
// slightly can transplant that basis instead of solving from zero.
//
// The protocol is:
//
//  1. Build the new instance as usual (arcs with fresh costs, excesses
//     declared via SetExcess).
//  2. Replay the donor's routed flow onto matching arcs with
//     PreloadFlow and its potentials with SetPrice (the caller owns the
//     arc/node correspondence; the network does not know what its nodes
//     mean).
//  3. SolveSSPWarm: it measures the per-node imbalance between the
//     declared excesses and what the preloaded flow already ships,
//     restores dual feasibility by saturating every residual arc whose
//     reduced cost went negative under the patched costs (a single
//     pass — saturating arc a makes only a's reversal residual, and its
//     reduced cost is the negation, hence positive), and drains the
//     remaining imbalance by successive shortest paths from the
//     retained potentials.
//
// The optimal transportation cost is unique, so a warm solve returns
// exactly the value a cold SolveSSP or SolveCostScaling would — the
// basis only decides how much work the solve performs. With a perfect
// transplant (identical instance) the drain routes nothing; with a
// small instance delta it performs a handful of augmentations; a
// useless transplant is detected by the repair and handed back to the
// caller for a cold solve. Both solvers leave exact potentials, so a
// network solved by either is a donor.

// Price returns node v's current potential.
func (nw *Network) Price(v int) int64 { return nw.price[v] }

// SetPrice seeds node v's potential, the dual half of a warm-start
// transplant. Arbitrary values are safe: SolveSSPWarm restores dual
// feasibility before draining.
func (nw *Network) SetPrice(v int, p int64) { nw.price[v] = p }

// SetCost changes forward arc arcID's cost, and its reversal's, and
// leaves its flow as it is. SolveSSPWarm then re-solves from the
// network's flow and potentials: a raised cost only raises the arc's
// reduced cost, and the repair unroutes its flow where that leaves the
// reversal negative.
func (nw *Network) SetCost(arcID int, cost int64) {
	nw.cost[arcID] = cost
	nw.cost[arcID^1] = -cost
}

// PreloadFlow routes up to x units onto forward arc arcID without any
// optimality bookkeeping — the primal half of a warm-start transplant.
// The amount is clamped to the arc's remaining residual capacity (and
// to zero from below); the routed amount is returned.
func (nw *Network) PreloadFlow(arcID int, x int64) int64 {
	if x <= 0 {
		return 0
	}
	if r := nw.res[arcID]; x > r {
		x = r
	}
	nw.res[arcID] -= x
	nw.res[arcID^1] += x
	return x
}

// SolveSSPWarm routes all declared excess starting from the network's
// current flow and potentials instead of from zero (see the file
// comment for the transplant protocol). All arc costs must be
// non-negative, as for SolveSSP. It returns the same total cost a cold
// solve would — the optimum is unique — after, typically, far fewer
// augmentations.
//
// When the saturation repair has to move more than half the declared
// supply, the transplanted basis was mostly junk (stale potentials or
// costs) and draining it would out-cost a cold solve. SolveSSPWarm
// then clears the flow and potentials (ResetFlow) and returns
// warm == false without solving, so the caller can pick the cold
// solver that suits the instance; only the replay and the saturation
// scan are wasted.
//
// The solve checks ctx between augmentations exactly as SolveSSP does,
// returning ctx.Err() when cancelled with the network in an undefined
// partially-routed state.
func (nw *Network) SolveSSPWarm(ctx context.Context) (cost int64, warm bool, err error) {
	supply, demand := nw.totalSupply()
	if supply != demand {
		return 0, false, fmt.Errorf("flow: unbalanced network: supply %d != demand %d", supply, demand)
	}
	n := nw.numNodes
	nw.scEx = growInt64(nw.scEx, n)
	ex := nw.scEx
	// Imbalance = declared excess minus what the preloaded flow already
	// ships. A perfect transplant leaves every entry zero.
	copy(ex, nw.excess[:n])
	for a := 0; a < len(nw.to); a += 2 {
		if f := nw.res[a^1]; f != 0 {
			ex[nw.to[a^1]] -= f
			ex[nw.to[a]] += f
		}
	}
	// Dual repair: saturate every residual arc whose reduced cost is
	// negative under the seeded potentials and patched costs. One pass
	// suffices — saturating a leaves only its reversal residual, whose
	// reduced cost is the negation (positive).
	for a := range nw.to {
		if nw.res[a] <= 0 {
			continue
		}
		v, w := nw.to[a^1], nw.to[a]
		if nw.cost[a]+nw.price[v]-nw.price[w] < 0 {
			amt := nw.res[a]
			nw.res[a] = 0
			nw.res[a^1] += amt
			ex[v] -= amt
			ex[w] += amt
		}
	}
	var remaining int64
	for _, e := range ex[:n] {
		if e > 0 {
			remaining += e
		}
	}
	if remaining > supply/2 {
		nw.ResetFlow()
		return 0, false, nil
	}
	if err := nw.drainSSP(ctx, ex, remaining); err != nil {
		return 0, true, err
	}
	return nw.TotalCost(), true, nil
}
