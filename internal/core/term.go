package core

import (
	"context"
	"math"
	"time"

	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
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
	// warm, when non-nil, is the engine's warm-basis ring (see
	// warm.go); it requires sc.
	warm *warmCache
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

// Route thresholds, fixed by measurement (the BENCH_sssp.json
// crossover probe; docs/PERFORMANCE.md, "Strategy selection").
const (
	// bipartiteArcLimit caps the supplier x consumer arc count of a
	// bipartite-routed instance; past it the network route keeps the
	// flow arrays linear in the graph.
	bipartiteArcLimit = 4_000_000
	// bipartiteMinNodes floors the reduced-node limit max(n/4, 1000)
	// of the bipartite route.
	bipartiteMinNodes = 1000
)

// Cold-solver thresholds, fixed by BenchmarkColdSolveShape
// (term_bench_test.go; numbers in docs/PERFORMANCE.md, "Strategy
// selection"). See coldSSP.
const (
	// sspMaxNodes caps a cold SSP instance. Singleton banks make every
	// active user a bank node; at 600 nodes (200 absorbing banks) SSP
	// still beat cost-scaling by 1.5x, at 884 nodes (859 banks) it lost
	// by 3-5x.
	sspMaxNodes = 600
	// sspUsersPerBankSink and sspUsersPerBankSource cap the residual
	// users per node of the bank side, with the banks absorbing
	// (residual suppliers) or supplying (residual consumers). On 64
	// clustered banks SSP won at 3.1 and lost at 6.25 users per sink,
	// and won at 0.78 and lost at 1.56 users per source.
	sspUsersPerBankSink   = 4
	sspUsersPerBankSource = 1
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
	bp := newBipartite(red, 0, 0)
	nodes := len(red.S) + len(red.C) + len(red.banks)
	return bp.numArcs() <= bipartiteArcLimit && nodes <= max(n/4, bipartiteMinNodes)
}

// termBipartite is the Theorem 4 pipeline: the SSSP fan-out (fanOut,
// charged as one run per residual supplier, or per residual consumer
// when the banks sit on the supplier side, whichever side it runs
// from), then solveTerm over the reduced bipartite instance.
// budgetScaled > 0 admits the approximation gates; budget 0 is the
// exact pipeline.
func termBipartite(g *graph.Digraph, spec termSpec, red reduction, o Options, tc termCtx, budgetScaled int64) (termVal, error) {
	bp := newBipartite(red, o.Gamma, infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops))
	runs := len(bp.sources)
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
	if tc.warm != nil {
		tc.sc.markInstance(g.N(), red)
		// Tracked reference states never take the whole-instance
		// shortcut: their fan-out materializes the exact trees the next
		// delta tick repairs from, and skipping it would silently
		// degrade every later Step to cold Dijkstras. The identical
		// basis is then a perfect transplant donor instead.
		shortcut := tc.prov == nil || !tc.prov.isTracked(tc.refHash)
		val, exact, d := tc.warm.lookup(tc.sc, tc.refHash, spec, &bp, shortcut)
		if exact {
			if tc.stats != nil {
				tc.stats.termsWarmExact.Add(1)
			}
			return exactVal(val, runs), nil
		}
		donor = d
	}
	byCols, need := tc.fanOutPlan(g, o, &bp)
	run, err := tc.fanOutAs(g, spec, o, &bp, byCols, need)
	if err != nil {
		return termVal{}, err
	}
	tv, nw, err := tc.solveRows(&bp, run, o, budgetScaled, donor)
	tv.runs = runs
	if err != nil {
		return tv, err
	}
	if tc.warm != nil && nw != nil && nw.NumArcs() >= warmMinArcs {
		// Retain the solved instance as the newest basis. reduce()'s
		// freshly allocated slices make the reduction safe to keep by
		// reference; the network stays with the worker. Both solvers
		// leave exact potentials in cost units, so any basis donates.
		// A plan solved over partial rows routes nothing over an
		// unknown cell, and raising those arcs' costs to the true
		// distances keeps its potentials dual feasible: the basis is
		// the true instance's.
		tc.warm.store(newWarmBasis(tc.refHash, spec.op, &bp, nw, tv.val))
	}
	return tv, nil
}

// solveTerm is the tail every bipartite term shares once bp's rows are
// in hand, whichever fan-out produced them.
//
// Bound gate: an admissible lower bound and a feasible greedy upper
// bound are a rows-scan away; when they coincide they pin the integer
// optimum and the flow solve is skipped. A positive error budget
// relaxes the gate: an envelope within budget decides the term at its
// feasible upper end (counted as coarse when the rows are the
// multilevel pass's matrix).
//
// Entropic stage: with a budget, the Sinkhorn envelope (termSinkhorn)
// combined with the row bounds may certify the term instead.
//
// Otherwise flowSolve computes the exact value, warm from donor when
// one is given. The solved network is returned only in that case;
// runs is left to the caller.
func (tc termCtx) solveTerm(bp *bipartite, o Options, budgetScaled int64, coarse bool, donor *warmBasis) (termVal, *flow.Network, error) {
	rowsLB, rowsUB := int64(0), int64(math.MaxInt64)
	if !o.ablated(ablateBounds) {
		boundStart := time.Now()
		lb, ub := termBoundsFromRows(bp, tc.sc)
		if tc.stats != nil {
			addPhase(&tc.stats.boundNanos, boundStart)
		}
		scale := float64(bp.red.scale)
		if lb == ub {
			if tc.stats != nil {
				tc.stats.termsBoundDecided.Add(1)
			}
			return exactVal(float64(lb)/scale, 0), nil, nil
		}
		if budgetScaled > 0 && ub != math.MaxInt64 && ub-lb <= budgetScaled {
			if tc.stats != nil {
				if coarse {
					tc.stats.termsApproxCoarse.Add(1)
				} else {
					tc.stats.termsApproxGap.Add(1)
				}
			}
			return termVal{val: float64(ub) / scale, lb: float64(lb) / scale, ub: float64(ub) / scale}, nil, nil
		}
		rowsLB, rowsUB = lb, ub
	}
	if budgetScaled > 0 {
		if tv, ok := tc.termSinkhorn(bp, rowsLB, rowsUB, budgetScaled); ok {
			return tv, nil, nil
		}
	}
	return tc.flowSolve(bp, donor)
}

// solveRows is solveTerm over rows the row side's run may have left
// partial. A plan over partial rows stands once it routes nothing over
// an unknown cell: see bipartite.crossedRows. Otherwise the rows it
// crossed are completed and the term is solved again, and a second
// crossing completes every row for a last solve.
func (tc termCtx) solveRows(bp *bipartite, run rowRun, o Options, budgetScaled int64, donor *warmBasis) (termVal, *flow.Network, error) {
	tv, nw, err := tc.solveTerm(bp, o, budgetScaled, false, donor)
	for round := 0; err == nil && nw != nil; round++ {
		crossed := bp.crossedRows(nw)
		if len(crossed) == 0 {
			break
		}
		if round > 0 {
			crossed = bp.openRows()
			if tc.stats != nil {
				tc.stats.rowsCompletedAll.Add(1)
			}
		} else if tc.stats != nil {
			tc.stats.rowsExtended.Add(1)
		}
		if err := tc.runTasks(len(crossed), func(sc *scratch, i int) { run(sc, int(crossed[i]), 0) }); err != nil {
			return termVal{}, nil, err
		}
		tv, nw, err = tc.solveTerm(bp, o, budgetScaled, false, donor)
	}
	return tv, nw, err
}

// flowSolve assembles bp and solves it exactly. With a donor, its basis
// is replayed onto the fresh instance and SolveSSPWarm drains the
// residual imbalance from its potentials; a basis the repair finds to
// be junk comes back unsolved and the term is solved cold, by the
// solver coldSSP picks. The optimum is unique, so every path returns
// the same value.
func (tc termCtx) flowSolve(bp *bipartite, donor *warmBasis) (termVal, *flow.Network, error) {
	nw := bp.network(tc.sc)
	solveStart := time.Now()
	var cost int64
	var err error
	warm := false
	if donor != nil {
		tc.sc.transplant(nw, bp, donor)
		cost, warm, err = nw.SolveSSPWarm(tc.ctx)
	}
	if !warm && err == nil {
		cost, err = solveBipartite(tc.ctx, nw, bp.red)
	}
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, solveStart)
		if err == nil && warm {
			tc.stats.termsWarmSolved.Add(1)
		} else if err == nil {
			tc.stats.flowSolves.Add(1)
		}
	}
	if err != nil {
		return termVal{}, nil, err
	}
	return exactVal(float64(cost)/float64(bp.red.scale), 0), nw, nil
}

// columnFanOutRatio and partialColumnFanOutRatio are the sources per
// column past which the fan-out runs by column (see byColumns), against
// complete and against partial rows, fixed by
// BenchmarkFanOutOrientation (term_bench_test.go; numbers in
// docs/PERFORMANCE.md, "Strategy selection"). Against 64 bank columns
// complete rows won at 2 sources per column and lost at 4. With 50
// opposite users added, whose scattered single-user columns make every
// row run cover more of the graph, they won at 0.56 and lost at 1.12
// and 2.25: the rule gives up 1.06x at 1.12 rather than 1.9x at 2.25.
// Partial rows won at 4 and lost at 6 against 64 banks, and won at 3.4
// and tied at 4.5 with the 50 opposite users added.
const (
	columnFanOutRatio        = 2
	partialColumnFanOutRatio = 4
)

// fanOutPlan picks how termBipartite fills bp's rows: by column
// (byColumns), or by row, partial rows of need columns (partialRows)
// or complete ones (need 0).
func (tc termCtx) fanOutPlan(g *graph.Digraph, o Options, bp *bipartite) (byCols bool, need int) {
	partial := tc.partialRows(g, o, bp)
	switch {
	case tc.byColumns(o, bp, partial):
		return true, 0
	case partial:
		return false, partialRowColumns
	}
	return false, 0
}

// byColumns reports whether bp's fan-out runs by column: one search per
// column instead of one per source. Each run costs about a ball around
// its source set, so the side with fewer runs wins once the other has
// columnFanOutRatio times as many, or partialColumnFanOutRatio times
// as many when the row side would run partial rows, whose balls are
// smaller. The column side is taken only where the row side would
// retain nothing (see retainsRows). Ablated goal pruning pins the row
// side too: it runs the unoptimized fan-out. Both sides fill the same
// rows, so the choice moves no bit.
func (tc termCtx) byColumns(o Options, bp *bipartite, partial bool) bool {
	ratio := columnFanOutRatio
	if partial {
		ratio = partialColumnFanOutRatio
	}
	if o.ablated(ablateGoalPrune) || ratio*bp.nCols() >= len(bp.sources) {
		return false
	}
	return !tc.retainsRows()
}

// retainsRows reports whether the ground provider keeps what the row
// side's runs compute. It keeps nothing with no provider, or in a
// Series over an untracked reference state. A tracked state's source
// runs build the trees Step repairs from, and Pairs and Matrix retain
// compact rows for their repeated queries.
func (tc termCtx) retainsRows() bool {
	return tc.prov != nil && (!tc.series || tc.prov.isTracked(tc.refHash))
}

// partialRowColumns is the columns a partial row settles before its
// search stops (see partialRows), fixed by BenchmarkFanOutOrientation's
// partial side (term_bench_test.go; numbers in docs/PERFORMANCE.md,
// "Strategy selection"). With absorbing banks a source's plan mostly
// ships to its nearest few banks: on analyze's Series, seeds 2-5, 8
// columns certified the first solve of 13-14 of each seed's 14 partial
// terms, where 4 certified 3-9 and cost 1.6-2.1 solves per term.
const partialRowColumns = 8

// partialRows reports whether bp's row-side runs stop once
// partialRowColumns columns settle, leaving the farther cells unknown
// (see bipartite.radius and solveRows, which checks the plan). It
// takes terms whose banks absorb (residual suppliers are the sources),
// with more columns than that, on the exact pipeline's goal search
// (no error budget, no ablation, columns not dense), where the row
// side retains nothing. Where the banks supply, plans reach far
// columns: on the same analyze terms every such plan crossed unknown
// cells twice, paying three solves and every row. Retained rows must
// be complete.
func (tc termCtx) partialRows(g *graph.Digraph, o Options, bp *bipartite) bool {
	return tc.epsTerm == 0 && !bp.rev && bp.nCols() > partialRowColumns &&
		bp.nCols() <= pruneLimit(g.N()) && !o.ablated(ablateGoalPrune) && !tc.retainsRows()
}

// fanOut fills bp.rows, rows[k][j] being the ground distance from
// source k to column j: to opposite residual user j, or for a bank
// column to the bank's nearest member. The term consumes nothing else:
// a bank costs gamma plus that distance (Lemmas 1 and 2), so no further
// member distance is ever read, and everything past inf is saturated by
// bp.capped, so no run needs to settle beyond that radius either. Both
// prunes are exact on these columns.
//
// The matrix is filled from either side, as byColumns picks. By row,
// one search per source: per residual supplier, or per residual
// consumer over the reverse graph when the banks sit on the supplier
// side. By column, one search per column over the transposed graph:
// from each opposite user, and from each bank's whole member set at
// once, which settles d(s -> nearest member) for every source s. Both
// sides search with sssp.DijkstraGoalsInto cut off at inf and give the
// same rows, bit for bit. The provider's retained rows and the row
// side's dense fallback differ from them only past inf, where
// bp.capped saturates every value alike. fanOut fills complete rows;
// termBipartite may ask fanOutAs for partial ones.
//
// Runs are sub-tasks with a fixed output slot (a row, or a column of
// every row), so when a help pool is present idle workers steal them,
// with rows — and every downstream bit — identical to the sequential
// order.
func (tc termCtx) fanOut(g *graph.Digraph, spec termSpec, o Options, bp *bipartite) error {
	_, err := tc.fanOutAs(g, spec, o, bp, tc.byColumns(o, bp, false), 0)
	return err
}

// fanOutAs is fanOut with the orientation given; need > 0 asks the row
// side for partial rows of that many columns. It returns the row
// side's run (nil by column), which completes a row when called with
// need 0.
func (tc termCtx) fanOutAs(g *graph.Digraph, spec termSpec, o Options, bp *bipartite, byCols bool, need int) (rowRun, error) {
	tc.sc.resetRows()
	rows := tc.sc.takeRowHeaders(len(bp.sources))
	for i := range rows {
		rows[i] = tc.sc.takeRow(bp.nCols())
	}
	bp.rows, bp.radius = rows, nil
	if byCols {
		return nil, tc.runTasks(bp.nCols(), tc.columnRuns(g, spec, o, bp, rows))
	}
	if need > 0 {
		bp.radius = tc.sc.takeRow(len(bp.sources))
	}
	run := tc.sourceRuns(g, spec, o, bp)
	return run, tc.runTasks(len(bp.sources), func(sc *scratch, i int) { run(sc, i, need) })
}

// runTasks runs the fan-out sub-tasks 0..total-1, split across the help
// pool's idle workers when there is one, and charges the time to SSSP.
func (tc termCtx) runTasks(total int, run func(sc *scratch, i int)) error {
	owner := tc.sc
	if owner == nil {
		owner = &scratch{} // one-shot callers (Explain) carry no arena
	}
	start := time.Now()
	if tc.help != nil && total > 1 {
		if err := tc.help.runFanout(tc.ctx, owner, total, run); err != nil {
			return err
		}
	} else {
		for i := 0; i < total; i++ {
			if err := tc.cancelled(); err != nil {
				return err
			}
			run(owner, i)
		}
	}
	if tc.stats != nil {
		addPhase(&tc.stats.ssspNanos, start)
	}
	return nil
}

// rowRun fills row i of a row-side fan-out, partially when need > 0
// (see sourceRuns).
type rowRun func(sc *scratch, i, need int)

// sourceRuns returns the row side's sub-task: run i fills rows[i], the
// row of bp.sources[i]. The search's targets are the opposite users,
// then every bank's members, with cols mapping each to its column.
//
// A row is filled by the provider's fast paths when one is attached,
// by the grouped goal search on the no-provider, budget-exhausted and
// Series-miss paths, and by a full-graph run when goal pruning is
// ablated or the columns are dense.
//
// With need > 0 the goal search stops once need columns settle (and
// that key level is finished); the row then keeps its radius in
// bp.radius[i] and holds radius+1 on every cell past it. A search that
// ends on its own, or a row the provider serves, is complete:
// bp.radius[i] reads sssp.Unreachable. So does a radius at inf, past
// which every cell saturates anyway.
func (tc termCtx) sourceRuns(g *graph.Digraph, spec termSpec, o Options, bp *bipartite) rowRun {
	srcGraph := g
	if bp.rev {
		// Reverse runs: dist(x -> c) for every x, per consumer c.
		srcGraph = g.Reverse()
	}
	srcW := tc.groundWeights(g, spec, o, bp.rev)
	nOpp, nCols := bp.nOpp(), bp.nCols()
	targets, cols := tc.sc.takeTargets(nCols)
	targets = append(targets, bp.opposite...)
	for j := 0; j < nOpp; j++ {
		cols = append(cols, int32(j))
	}
	for b, bank := range bp.red.banks {
		targets = append(targets, bank.members...)
		for range bank.members {
			cols = append(cols, int32(nOpp+b))
		}
	}
	if tc.sc != nil {
		tc.sc.targets, tc.sc.cols = targets, cols
	}

	dense := bp.nCols() > pruneLimit(g.N())
	noPrune := o.ablated(ablateGoalPrune)
	maxCost := o.Costs.MaxCost()
	rows := bp.rows
	return func(sc *scratch, i, need int) {
		s := bp.sources[i]
		out := rows[i]
		if bp.radius != nil {
			bp.radius[i] = sssp.Unreachable
		}
		if tc.prov != nil {
			if !noPrune {
				if tc.prov.rowGoals(tc.refHash, spec.ref, spec.op, bp.rev, s, srcW, targets, cols, out, !tc.series, sc) {
					return
				}
			} else if row, ok := tc.prov.row(tc.refHash, spec.ref, spec.op, bp.rev, s, srcW); ok {
				foldCols(out, row, targets, cols)
				return
			}
		}
		if noPrune || dense {
			// Unpruned: settle the whole graph into the worker's result
			// buffer, then fold out the queried columns.
			sssp.DijkstraFrontierInto(srcGraph, srcW, int(s), maxCost, &sc.res, &sc.fr)
			foldCols(out, sc.res.Dist, targets, cols)
			// Read through the cutoff, as the goal search (and so the
			// column side) reports it.
			for c, d := range out {
				if d > bp.inf {
					out[c] = sssp.Unreachable
				}
			}
			return
		}
		r := sssp.DijkstraGoalsInto(srcGraph, srcW, bp.sources[i:i+1], targets, cols, need, maxCost, bp.inf, out, &sc.goals)
		if r < bp.inf { // need > 0, so bp.radius is in place
			bp.radius[i] = r
			for c, d := range out {
				if d > r {
					out[c] = r + 1
				}
			}
		}
	}
}

// columnRuns returns the column side's sub-task: run j fills column j
// of every row. The runs go over the transpose of the row side's graph,
// with the sources as targets, one column each, so a run from column
// entity c settles d(s -> c) for every source s at once. An opposite
// user's run is a row of the provider's transposed direction, so its
// fast paths serve it when they can (retaining only outside a Series,
// as on the row side); a bank's run starts from all its members.
func (tc termCtx) columnRuns(g *graph.Digraph, spec termSpec, o Options, bp *bipartite, rows [][]int64) func(sc *scratch, j int) {
	colGraph := g.Reverse()
	if bp.rev {
		colGraph = g
	}
	colW := tc.groundWeights(g, spec, o, !bp.rev)
	nOpp, maxCost := bp.nOpp(), o.Costs.MaxCost()
	return func(sc *scratch, j int) {
		out := sc.takeColumn(len(bp.sources))
		if j < nOpp {
			c := bp.opposite[j : j+1]
			if tc.prov == nil || !tc.prov.rowGoals(tc.refHash, spec.ref, spec.op, !bp.rev, c[0], colW, bp.sources, nil, out, !tc.series, sc) {
				sssp.DijkstraGoalsInto(colGraph, colW, c, bp.sources, nil, 0, maxCost, bp.inf, out, &sc.goals)
			}
		} else {
			sssp.DijkstraGoalsInto(colGraph, colW, bp.red.banks[j-nOpp].members, bp.sources, nil, 0, maxCost, bp.inf, out, &sc.goals)
		}
		for k, d := range out {
			rows[k][j] = d
		}
	}
}

// pruneLimit is the column count, on a graph of n users, past which a
// row-side run settles the whole graph instead of running the goal
// search. A goal search must settle a ball reaching every column; once
// columns are plentiful relative to the graph that ball is the graph
// itself, and the search's bookkeeping only adds per-edge overhead
// (measured ~10-30% on the delta workload's ~600 scattered targets). A
// bank is one column however many members it has: the search settles
// it with its nearest member.
func pruneLimit(n int) int {
	return max(n/64, 64)
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

// coldSSP reports whether red's cold bipartite instance is solved by
// successive shortest paths; cost-scaling solves the rest. The measure
// is the residual users against the nodes on the bank side. SSP routes
// about one augmentation per residual user, and each augmentation's
// multi-source Dijkstra scans every arc of the nodes still holding
// excess. When users outnumber the bank-side nodes they contend for
// the banks' capacity, augmenting paths reroute through filled banks,
// and SSP's work grows much faster than cost-scaling's, which stays
// near-linear in the arcs. Banks that supply keep their excess to the
// end of the solve, so every Dijkstra scans all arcs: that orientation
// tolerates fewer users per bank-side node. Independently, a large
// bank side (singleton banks) costs SSP one augmentation per bank;
// sspMaxNodes caps it.
func coldSSP(red reduction) bool {
	users, bankSide, perNode := len(red.S), len(red.C)+len(red.banks), sspUsersPerBankSink
	if red.banksOnSupplier {
		users, bankSide, perNode = len(red.C), len(red.S)+len(red.banks), sspUsersPerBankSource
	}
	return users+bankSide <= sspMaxNodes && users <= perNode*bankSide
}

// solveBipartite solves nw, the cold bipartite instance of red, with
// the solver coldSSP picks. The optimum is unique, so the choice moves
// no bit of the result. ctx (which may be nil) lets the solvers
// abandon a cancelled request between flow pushes.
func solveBipartite(ctx context.Context, nw *flow.Network, red reduction) (int64, error) {
	if coldSSP(red) {
		return nw.SolveSSP(ctx)
	}
	return nw.SolveCostScaling(ctx)
}
