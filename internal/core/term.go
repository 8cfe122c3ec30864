package core

import (
	"context"
	"math"
	"time"

	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/pqueue"
	"snd/internal/sssp"
)

// termSpec identifies one EMD* term of eq. 3: transport the op-opinion
// mass of supplier state p onto consumer state q under the ground
// distance derived from reference state ref.
type termSpec struct {
	op  opinion.Opinion
	p   opinion.State
	q   opinion.State
	ref opinion.State
}

// bankGroup is one bank bin of the reduced problem: it attaches to the
// active (lighter-histogram) users of one cluster and carries
// units = delta * |members| flow units in the scale-multiplied instance.
type bankGroup struct {
	members []int32
	units   int64
}

// reduction is the Lemma 1/2-reduced transportation instance of one
// EMD* term, before engine-specific realization.
type reduction struct {
	S, C []int32 // residual suppliers / consumers (opinion changed)
	// banksOnSupplier is true when the supplier histogram is lighter
	// (its banks provide the surplus the consumer histogram holds).
	banksOnSupplier bool
	banks           []bankGroup
	scale           int64 // all masses are multiplied by this to stay integral
	sumP, sumQ      int64
}

func reduce(spec termSpec, clusters []int, n int) reduction {
	var r reduction
	var activeP, activeQ []int32
	for i := 0; i < n; i++ {
		pOp := spec.p[i] == spec.op
		qOp := spec.q[i] == spec.op
		if pOp {
			r.sumP++
			activeP = append(activeP, int32(i))
		}
		if qOp {
			r.sumQ++
			activeQ = append(activeQ, int32(i))
		}
		if pOp && !qOp {
			r.S = append(r.S, int32(i))
		} else if qOp && !pOp {
			r.C = append(r.C, int32(i))
		}
	}
	delta := r.sumP - r.sumQ
	if delta < 0 {
		delta = -delta
	}
	r.scale = 1
	if delta == 0 {
		return r
	}
	// Banks attach to the lighter histogram's active users (falling
	// back to the heavier's when the lighter is empty), grouped by
	// cluster, with capacity proportional to each cluster's active
	// mass. Multiplying every mass by the lighter total (the "scale")
	// turns the per-cluster capacity delta*|members|/total into the
	// integer delta*|members|.
	bankBins := activeQ
	r.banksOnSupplier = r.sumP < r.sumQ
	if r.banksOnSupplier {
		bankBins = activeP
	}
	if len(bankBins) == 0 {
		// Lighter histogram empty: distribute over the heavier's bins.
		if r.banksOnSupplier {
			bankBins = activeQ
		} else {
			bankBins = activeP
		}
	}
	r.scale = int64(len(bankBins))
	if clusters == nil {
		r.banks = make([]bankGroup, len(bankBins))
		for i := range bankBins {
			r.banks[i] = bankGroup{members: bankBins[i : i+1], units: delta}
		}
		return r
	}
	// Group bank bins by cluster in first-seen order (bankBins is in
	// ascending user order), so the bank list — and therefore Explain's
	// transport plans — is deterministic rather than map-iteration
	// ordered. Term values never depended on this order (the optimal
	// cost is unique), but the realized plan does.
	byCluster := make(map[int]int)
	for _, v := range bankBins {
		c := clusters[v]
		if _, seen := byCluster[c]; !seen {
			byCluster[c] = len(r.banks)
			r.banks = append(r.banks, bankGroup{})
		}
		b := &r.banks[byCluster[c]]
		b.members = append(b.members, v)
	}
	for i := range r.banks {
		r.banks[i].units = delta * int64(len(r.banks[i].members))
	}
	return r
}

// infCost is the saturated (thresholded) cost for transport between
// users with no directed path, or whose shortest path would exceed
// escapeHops maximally-expensive edges (see Options.EscapeHops).
func infCost(n int, maxEdgeCost int64, escapeHops int) int64 {
	hops := int64(n + 1)
	if eh := int64(escapeHops); eh < hops {
		hops = eh
	}
	return hops * maxEdgeCost
}

// termCtx threads an engine worker's scratch arena, the engine's shared
// ground-distance provider, and the request context into a term
// computation. The zero value (no reuse, no provider, no cancellation)
// reproduces the standalone sequential behavior.
type termCtx struct {
	// ctx, when non-nil, is checked between SSSP runs and handed to the
	// flow solvers so a cancelled request stops mid-term. It never
	// changes the numeric result of an uncancelled computation.
	ctx  context.Context
	sc   *scratch
	prov *groundProvider
	// stats, when non-nil, receives the engine's phase timings and
	// warm/bound counters; the zero termCtx records nothing.
	stats *engineStats
	// refHash fingerprints spec.ref; only meaningful when the engine
	// provides it (provider keys and warm-basis identity both hang off
	// it).
	refHash hashKey
	// help, when non-nil, lets this term split its per-source SSSP
	// fan-out into sub-tasks that idle engine workers steal. Row
	// placement is fixed up front, so results are bit-identical to the
	// sequential loop regardless of who computes which row.
	help *helpPool
	// epsTerm is this term's certified error budget in SND units
	// (Epsilon/2 with a float-safety margin; see pairsEps). 0 — the
	// zero termCtx — pins the exact pipeline: no approximation branch
	// is even consulted.
	epsTerm float64
	// series marks a term of a Series batch: on a provider miss for an
	// untracked reference state it runs the grouped goal search into
	// the worker's scratch and retains no compact row (see
	// groundProvider.rowGoals for why).
	series bool
}

// cancelled returns the context error, tolerating the zero termCtx.
func (tc termCtx) cancelled() error {
	if tc.ctx == nil {
		return nil
	}
	return tc.ctx.Err()
}

// groundWeights returns the eq. 2 edge costs of spec's ground distance
// in forward or reverse CSR order, consulting the provider when
// present (which serves them by cache hit, delta patching, or fresh
// materialization).
func (tc termCtx) groundWeights(g *graph.Digraph, spec termSpec, o Options, reversed bool) []int32 {
	if tc.prov == nil {
		w := o.Costs.EdgeCosts(g, spec.ref, spec.op)
		if reversed {
			return graph.PermuteToReverse(g, w)
		}
		return w
	}
	return tc.prov.weights(tc.refHash, spec.ref, spec.op, reversed)
}

// termVal is one term's outcome: the returned value, its certified
// envelope (lb == ub == val on every exact path), the SSSP runs
// charged, and the engine used.
type termVal struct {
	val, lb, ub float64
	runs        int
	used        ComputeEngine
}

// exactVal wraps an exactly-computed term value (degenerate envelope).
func exactVal(v float64, runs int) termVal {
	return termVal{val: v, lb: v, ub: v, runs: runs}
}

// Strategy thresholds, fixed by measurement (the BENCH_sssp.json
// crossover probe; docs/PERFORMANCE.md, "Strategy selection").
const (
	// bipartiteArcLimit caps the supplier x consumer arc count of a
	// bipartite-routed instance; past it the network route keeps the
	// flow arrays linear in the graph.
	bipartiteArcLimit = 4_000_000
	// bipartiteMinNodes floors the reduced-node limit max(n/4, 1000)
	// of the bipartite route.
	bipartiteMinNodes = 1000
	// sspNodeLimit is the largest bipartite flow instance solved cold
	// by successive shortest paths; cost-scaling solves larger ones.
	sspNodeLimit = 600
)

// computeTerm evaluates one EMD* term. With tc.epsTerm == 0 every
// branch below is the exact pipeline, bit-identical to the
// pre-approximation engine; a positive budget admits the certified
// approximation tier on the bipartite route.
func computeTerm(g *graph.Digraph, spec termSpec, o Options, tc termCtx) (termVal, error) {
	red := reduce(spec, o.Clusters, g.N())
	if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
		return termVal{}, nil
	}
	if !bipartiteRoute(red, g.N()) {
		v, err := termNetwork(g, spec, red, o, tc)
		tv := exactVal(v, 0)
		tv.used = EngineNetwork
		return tv, err
	}
	// The approximation tier serves only the bipartite route (its rows
	// and reduced instance are what the bounds and the entropic solver
	// consume); budget 0 — or ablated bounds, which pin unscreened exact
	// solves — keeps every gate closed.
	var budget int64
	if tc.epsTerm > 0 && !o.ablated(ablateBounds) {
		budget = int64(tc.epsTerm * float64(red.scale))
	}
	if budget > 0 {
		tv, ok, err := termApproxMultilevel(g, spec, red, o, tc, budget)
		if err != nil || ok {
			tv.used = EngineBipartite
			return tv, err
		}
	}
	tv, err := termBipartite(g, spec, red, o, tc, budget)
	tv.used = EngineBipartite
	return tv, err
}

// bipartiteRoute reports whether the reduced instance red, over a graph
// of n users, takes the bipartite route. That route wins while the
// instance is small relative to the network: its cost is n-delta SSSP
// runs plus a flow over nS*(nC+banks) arcs, while the network route
// pays for cost-scaling over the whole graph. Measured on the
// goal-pruned pipeline (BENCH_sssp.json crossover probe, |V| = 10000,
// uniformly scattered flips — the fan-out's worst case): bipartite
// wins at ~1900 reduced nodes (2.1s vs 3.3s) and loses at ~3300 (5.1s
// vs 3.3s), bracketing the crossover at roughly n/4.
func bipartiteRoute(red reduction, n int) bool {
	arcs := len(red.S) * (len(red.C) + len(red.banks))
	if red.banksOnSupplier {
		arcs = (len(red.S) + len(red.banks)) * len(red.C)
	}
	nodes := len(red.S) + len(red.C) + len(red.banks)
	return arcs <= bipartiteArcLimit && nodes <= max(n/4, bipartiteMinNodes)
}

// termBipartite is the Theorem 4 pipeline: one SSSP per residual
// supplier (forward) or per residual consumer (reverse, when the banks
// sit on the supplier side), then an integer min-cost flow over the
// reduced bipartite instance.
func termBipartite(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx, budgetScaled int64) (termVal, error) {
	tv, _, _, err := termBipartiteNetwork(g, spec, red, o, tc, false, budgetScaled)
	return tv, err
}

// termBipartiteNetwork is termBipartite exposing the solved flow
// network and — when collectArcs is set (Explain) — the user-level
// meaning of every arc. The engine path passes false, so no arc-ref
// garbage is assembled per term. budgetScaled > 0 admits the
// approximation gates: a term whose certified envelope (relaxed row
// gate, then the entropic solver) closes within the budget returns it
// without a flow solve; budget 0 is the exact pipeline unchanged.
func termBipartiteNetwork(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx, collectArcs bool, budgetScaled int64) (termVal, *flow.Network, []arcRef, error) {
	maxCost := o.Costs.MaxCost()
	inf := infCost(g.N(), maxCost, o.EscapeHops)

	// dist(i, j) below means shortest path from supplier-side entity i
	// to consumer-side entity j in the ground distance.
	var srcGraph = g
	sources, opposite := red.S, red.C
	reversed := red.banksOnSupplier
	if reversed {
		// Reverse runs: dist(x -> c) for every x, per consumer c.
		srcGraph = g.Reverse()
		sources, opposite = red.C, red.S
	}
	if tc.stats != nil {
		tc.stats.terms.Add(1)
	}

	// Warm-start lookup. An exact hit — same ground distance, same
	// reduced structure — is a whole retained instance: its optimal
	// cost is the term value, before any shortest-path or assembly
	// work (the SSSP charge is reported as always, so Results stay
	// identical). Failing that, the best-overlapping basis becomes a
	// transplant donor for the solve below.
	var donor *warmBasis
	warmable := tc.sc != nil && tc.sc.warm != nil && !collectArcs
	if warmable {
		tc.sc.markInstance(g.N(), red)
		exact, d := tc.sc.findWarm(tc.refHash, spec, red)
		// Tracked reference states never take the whole-instance
		// shortcut: their fan-out materializes the exact trees the next
		// delta tick repairs from, and skipping it would silently
		// degrade every later Step to cold Dijkstras.
		if exact != nil {
			if tc.prov == nil || !tc.prov.isTracked(tc.refHash) {
				tc.sc.warm.refresh(exact)
				if tc.stats != nil {
					tc.stats.termsWarmExact.Add(1)
				}
				return exactVal(float64(exact.cost)/float64(red.scale), len(sources)), nil, nil, nil
			}
			// Shortcut declined (fan-out must run for the tracked
			// state); the identical basis is still a perfect transplant
			// donor for the solve — if it still holds its network
			// (budget pressure strips networks but keeps structures).
			if exact.nw != nil {
				d = exact
			}
		}
		donor = d
	}
	srcW := tc.groundWeights(g, spec, o, reversed)

	// The term consumes, per source, only the distance to each opposite
	// residual user and to each bank's nearest member: a bank costs
	// gamma plus that distance (Lemmas 1 and 2), so no further member
	// distance is ever read. Rows therefore have one column per
	// opposite user (column j is opposite[j]) and one per bank (column
	// nOpp+b), and the fan-out fills a bank column with the minimum
	// over its members. targets lists the opposite users, then every
	// bank's members; cols maps each target to its column. Everything
	// past inf is saturated by capDist below, so the fan-out also never
	// needs to settle beyond that radius — both prunes are exact on
	// these columns.
	nOpp, nB := len(opposite), len(red.banks)
	targets, cols := tc.sc.takeTargets(nOpp + nB)
	targets = append(targets, opposite...)
	for j := range opposite {
		cols = append(cols, int32(j))
	}
	for b, bank := range red.banks {
		targets = append(targets, bank.members...)
		for range bank.members {
			cols = append(cols, int32(nOpp+b))
		}
	}

	// Fix row placement up front (rows[i] belongs to sources[i]) so the
	// fan-out can run in any order — sequentially, or split across idle
	// workers — with bit-identical results.
	tc.sc.resetRows()
	rows := tc.sc.takeRowHeaders(len(sources))
	for i := range rows {
		rows[i] = tc.sc.takeRow(nOpp + nB)
	}
	if tc.sc != nil {
		tc.sc.targets, tc.sc.cols = targets, cols
	}
	fanStart := time.Now()
	if err := tc.fanOutRows(srcGraph, srcW, spec, o, sources, targets, cols, rows, reversed, maxCost, inf); err != nil {
		return termVal{}, nil, nil, err
	}
	if tc.stats != nil {
		addPhase(&tc.stats.ssspNanos, fanStart)
	}
	capDist := func(d int64) int64 {
		if d >= sssp.Unreachable || d > inf {
			return inf
		}
		return d
	}

	// Bound gate: with the rows in hand, an admissible lower bound and
	// a feasible greedy upper bound are a rows-scan away; when they
	// coincide they pin the integer optimum and the flow solve is
	// skipped. A positive error budget relaxes the gate: an envelope
	// within budget decides the term at its feasible upper end. Explain
	// always solves (it needs the realized plan).
	rowsLB, rowsUB := int64(0), int64(math.MaxInt64)
	if !o.ablated(ablateBounds) && !collectArcs {
		boundStart := time.Now()
		lb, ub := termBoundsFromRows(red, rows, nOpp, o.Gamma, capDist, tc.sc)
		if tc.stats != nil {
			addPhase(&tc.stats.boundNanos, boundStart)
		}
		if lb == ub {
			if tc.stats != nil {
				tc.stats.termsBoundDecided.Add(1)
			}
			return exactVal(float64(lb)/float64(red.scale), len(sources)), nil, nil, nil
		}
		if budgetScaled > 0 && ub != math.MaxInt64 && ub-lb <= budgetScaled {
			if tc.stats != nil {
				tc.stats.termsApproxGap.Add(1)
			}
			scale := float64(red.scale)
			return termVal{val: float64(ub) / scale, lb: float64(lb) / scale, ub: float64(ub) / scale, runs: len(sources)}, nil, nil, nil
		}
		rowsLB, rowsUB = lb, ub
	}
	// distSC(i, j): ground distance from red.S[i] to red.C[j].
	distSC := func(i, j int) int64 {
		if red.banksOnSupplier {
			return capDist(rows[j][i]) // target i is S[i] on reverse rows
		}
		return capDist(rows[i][j]) // target j is C[j] on forward rows
	}
	// bankDist(b, k): distance between bank b and the k-th entity on
	// the opposite side (consumer C[k] when banks supply, supplier S[k]
	// when banks consume); rows[k] is that entity's row either way, and
	// its column nOpp+b holds the distance to bank b's nearest member.
	bankDist := func(b, k int) int64 {
		return o.Gamma + capDist(rows[k][nOpp+b])
	}

	// Entropic stage: on instances big enough that an exact solve
	// hurts (and small enough that a dense entropic sweep is
	// affordable), try the Sinkhorn envelope — a rounded feasible plan
	// from above, a repaired dual from below — combined with the row
	// bounds already in hand. Either it certifies the budget and the
	// flow solve is skipped, or the exact solve below proceeds
	// unaffected.
	if budgetScaled > 0 {
		if tv, ok := termSinkhorn(red, distSC, bankDist, rowsLB, rowsUB, budgetScaled, len(sources), tc); ok {
			return tv, nil, nil, nil
		}
	}

	// Assemble the bipartite min-cost-flow instance, scaled integral,
	// recording each arc's user-level meaning for Explain. Bank arcs
	// are anchored at the bank's first member user.
	nS, nC := len(red.S), len(red.C)
	var nw *flow.Network
	var arcs []arcRef
	if red.banksOnSupplier {
		nw = tc.sc.network(nS+nB+nC, (nS+nB)*nC)
		for i := 0; i < nS; i++ {
			nw.SetExcess(i, red.scale)
		}
		for b := 0; b < nB; b++ {
			nw.SetExcess(nS+b, red.banks[b].units)
		}
		for j := 0; j < nC; j++ {
			nw.SetExcess(nS+nB+j, -red.scale)
		}
		for i := 0; i < nS; i++ {
			for j := 0; j < nC; j++ {
				c := distSC(i, j)
				id := nw.AddArc(i, nS+nB+j, red.scale, c)
				if collectArcs {
					arcs = append(arcs, arcRef{id: id, from: int(red.S[i]), to: int(red.C[j]), cost: c})
				}
			}
		}
		for b := 0; b < nB; b++ {
			for j := 0; j < nC; j++ {
				capacity := red.banks[b].units
				if red.scale < capacity {
					capacity = red.scale
				}
				c := bankDist(b, j)
				id := nw.AddArc(nS+b, nS+nB+j, capacity, c)
				if collectArcs {
					arcs = append(arcs, arcRef{
						id: id, from: int(red.banks[b].members[0]), fromBank: true,
						to: int(red.C[j]), cost: c,
					})
				}
			}
		}
	} else {
		nw = tc.sc.network(nS+nC+nB, nS*(nC+nB))
		for i := 0; i < nS; i++ {
			nw.SetExcess(i, red.scale)
		}
		for j := 0; j < nC; j++ {
			nw.SetExcess(nS+j, -red.scale)
		}
		for b := 0; b < nB; b++ {
			nw.SetExcess(nS+nC+b, -red.banks[b].units)
		}
		for i := 0; i < nS; i++ {
			for j := 0; j < nC; j++ {
				c := distSC(i, j)
				id := nw.AddArc(i, nS+j, red.scale, c)
				if collectArcs {
					arcs = append(arcs, arcRef{id: id, from: int(red.S[i]), to: int(red.C[j]), cost: c})
				}
			}
			for b := 0; b < nB; b++ {
				capacity := red.banks[b].units
				if red.scale < capacity {
					capacity = red.scale
				}
				c := bankDist(b, i)
				id := nw.AddArc(i, nS+nC+b, capacity, c)
				if collectArcs {
					arcs = append(arcs, arcRef{
						id: id, from: int(red.S[i]),
						to: int(red.banks[b].members[0]), toBank: true, cost: c,
					})
				}
			}
		}
	}
	solveStart := time.Now()
	var cost int64
	var err error
	usedCostScaling := false
	if donor != nil {
		// Warm solve: replay the donor's basis onto the fresh instance
		// and drain the residual imbalance from its potentials. The
		// optimum is unique, so the value matches a cold solve exactly.
		tc.sc.transplant(nw, red, donor)
		cost, err = nw.SolveSSPWarm(tc.ctx, o.Heap, inf+o.Gamma)
		if tc.stats != nil && err == nil {
			tc.stats.termsWarmSolved.Add(1)
		}
	} else {
		cost, usedCostScaling, err = solveBipartite(tc.ctx, nw, o.Heap, inf+o.Gamma)
		if tc.stats != nil && err == nil {
			tc.stats.flowSolves.Add(1)
		}
	}
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, solveStart)
	}
	if err != nil {
		return termVal{runs: len(sources)}, nil, nil, err
	}
	if warmable && nw == tc.sc.nw && nw.NumArcs() >= warmMinArcs {
		// Retain the solved instance as the newest basis. The network
		// moves into the ring (the scratch arena rebuilds from the
		// ring's evictions), and reduce()'s freshly allocated slices
		// make the reduction safe to keep by reference. Cost-scaling
		// leaves its potentials in the (n+1)-scaled domain; record the
		// divisor so transplants renormalize.
		priceDiv := int64(1)
		if usedCostScaling {
			priceDiv = int64(nw.N() + 1)
		}
		tc.sc.warm.store(&warmBasis{
			refHash:     tc.refHash,
			op:          spec.op,
			reversed:    reversed,
			red:         red,
			arcs:        nw.NumArcs(),
			cost:        cost,
			priceDiv:    priceDiv,
			nw:          nw,
			netBytes:    netFootprint(nw),
			structBytes: structFootprint(red),
		})
		tc.sc.nw = nil
	}
	return exactVal(float64(cost)/float64(red.scale), len(sources)), nw, arcs, nil
}

// fanOutRows fills rows[i] with the column-indexed ground-distance row
// of sources[i] (column c: the nearest of the targets cols maps to c):
// by the provider's fast paths when one is attached, by the grouped
// goal search (cut off at the saturation radius) on the no-provider,
// budget-exhausted and Series-miss paths, and by a full-graph run when
// goal pruning is ablated or the columns are dense. When a help pool
// is present the loop is split into per-source sub-tasks idle workers
// steal; placement is fixed by index, so the rows — and every
// downstream bit — are identical to the sequential order.
func (tc termCtx) fanOutRows(srcGraph *graph.Digraph, srcW []int32, spec termSpec, o Options, sources, targets, cols []int32, rows [][]int64, reversed bool, maxCost, cutoff int64) error {
	// A pruned search must settle a ball reaching every column; once
	// columns are plentiful relative to the graph that ball is the
	// graph itself and the epoch-stamped search only adds per-edge
	// overhead (measured ~10-30% on the delta workload's ~600
	// scattered targets), so past this density the fallback runs a
	// plain full row and folds it into columns. A bank is one column
	// however many members it has: the search settles it with its
	// nearest member. Either path is exact; the choice moves no bit.
	pruneLimit := srcGraph.N() / 64
	if pruneLimit < 64 {
		pruneLimit = 64
	}
	noPrune := o.ablated(ablateGoalPrune)
	fill := func(sc *scratch, i int) {
		s := sources[i]
		out := rows[i]
		if tc.prov != nil {
			if !noPrune {
				if tc.prov.rowGoals(tc.refHash, spec.ref, spec.op, reversed, s, srcW, targets, cols, out, !tc.series, sc) {
					return
				}
			} else if row, ok := tc.prov.row(tc.refHash, spec.ref, spec.op, reversed, s, srcW); ok {
				foldCols(out, row, targets, cols)
				return
			}
		}
		if noPrune || len(out) > pruneLimit {
			// Unpruned: settle the whole graph into the worker's result
			// buffer, then fold out the queried columns.
			sssp.DijkstraFrontierInto(srcGraph, srcW, int(s), o.Heap, maxCost, &sc.res, &sc.fr)
			foldCols(out, sc.res.Dist, targets, cols)
			return
		}
		sssp.DijkstraGoalsInto(srcGraph, srcW, int(s), targets, cols, o.Heap, maxCost, cutoff, out, &sc.goals)
	}
	owner := tc.sc
	if owner == nil {
		owner = &scratch{} // one-shot callers (Explain) carry no arena
	}
	if tc.help != nil && len(sources) > 1 {
		return tc.help.runFanout(tc.ctx, owner, len(sources), fill)
	}
	for i := range sources {
		if err := tc.cancelled(); err != nil {
			return err
		}
		fill(owner, i)
	}
	return nil
}

// termNetwork routes the reduced instance through the social network
// itself and solves it by cost-scaling.
func termNetwork(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx) (float64, error) {
	nw := networkInstance(g, spec, red, o, tc)
	solveStart := time.Now()
	cost, err := nw.SolveCostScaling(tc.ctx)
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, solveStart)
		if err == nil {
			tc.stats.flowSolves.Add(1)
		}
	}
	if err != nil {
		return 0, err
	}
	return float64(cost) / float64(red.scale), nil
}

// networkInstance assembles the network route's flow instance: graph
// arcs carry the eq. 2 costs, bank nodes attach to their member users
// with gamma-cost arcs, and an escape node guarantees feasibility on
// disconnected graphs at the same saturated cost the bipartite route
// uses for unreachable pairs.
func networkInstance(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx) *flow.Network {
	w := tc.groundWeights(g, spec, o, false)
	inf := infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops)
	n := g.N()
	nB := len(red.banks)
	escape := n + nB
	numNodes := n + nB + 1

	totalFlow := int64(len(red.S))*red.scale + bankUnits(red)
	nw := tc.sc.network(numNodes, g.M()+2*numNodes+nB*4)
	for u := 0; u < n; u++ {
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			nw.AddArc(u, int(g.Head(e)), totalFlow, int64(w[e]))
		}
	}
	for b := 0; b < nB; b++ {
		for _, v := range red.banks[b].members {
			if red.banksOnSupplier {
				nw.AddArc(n+b, int(v), totalFlow, o.Gamma)
			} else {
				nw.AddArc(int(v), n+b, totalFlow, o.Gamma)
			}
		}
	}
	// Escape hatch: any stranded unit can travel x -> escape -> y at
	// exactly infCost, matching the bipartite route's saturated cost.
	// Only graph nodes connect to the escape: bank nodes must keep
	// their gamma arc as the sole entrance/exit, exactly as in the
	// bipartite ground distance (gamma + capped member distance).
	half := inf / 2
	for x := 0; x < n; x++ {
		nw.AddArc(x, escape, totalFlow, half)
		nw.AddArc(escape, x, totalFlow, inf-half)
	}
	for _, s := range red.S {
		nw.SetExcess(int(s), red.scale)
	}
	for _, c := range red.C {
		nw.SetExcess(int(c), -red.scale)
	}
	for b := 0; b < nB; b++ {
		if red.banksOnSupplier {
			nw.SetExcess(n+b, red.banks[b].units)
		} else {
			nw.SetExcess(n+b, -red.banks[b].units)
		}
	}
	return nw
}

func bankUnits(red reduction) int64 {
	if !red.banksOnSupplier {
		return 0
	}
	var total int64
	for _, b := range red.banks {
		total += b.units
	}
	return total
}

// solveBipartite solves a cold bipartite instance: successive shortest
// paths up to sspNodeLimit nodes (few augmentations), cost-scaling
// beyond. Measured on the pruned pipeline (BENCH_sssp.json crossover
// probe): cost-scaling beats SSP 6x at ~1900 reduced nodes and 14x at
// ~3300, and is already level by ~600. With singleton banks a
// realistic active fraction pushes the instance past 600 nodes, so SSP
// effectively serves clustered-bank reductions. ctx (which may be nil)
// lets the solvers abandon a cancelled request between flow pushes.
// usedCostScaling reports which solver ran — warm-basis retention
// needs it to renormalize cost-scaling's scaled potentials.
func solveBipartite(ctx context.Context, nw *flow.Network, heap pqueue.Kind, maxArcCost int64) (cost int64, usedCostScaling bool, err error) {
	if nw.N() <= sspNodeLimit {
		cost, err = nw.SolveSSP(ctx, heap, maxArcCost)
		return cost, false, err
	}
	cost, err = nw.SolveCostScaling(ctx)
	return cost, true, err
}
