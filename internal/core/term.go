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
// computation. Every term needs the arena (sc); the other fields may be
// left zero: no provider, no warm ring, no help pool, no stats and no
// cancellation give the sequential computation on the arena alone.
type termCtx struct {
	// ctx, when non-nil, is checked between SSSP runs and handed to the
	// flow solvers so a cancelled request stops mid-term. It never
	// changes the numeric result of an uncancelled computation.
	ctx  context.Context
	sc   *scratch
	prov *groundProvider
	// warm, when non-nil, is the engine's warm-basis ring (see
	// warm.go). It is nil on budgeted terms (see runTerms).
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
	// (half the pair's, with a float-safety margin; see epsTermBudget).
	// 0 — the zero termCtx — pins the exact pipeline: no approximation
	// branch is even consulted.
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
// branch below is the exact pipeline; a positive budget admits the
// certified approximation tier on the bipartite route.
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
	// consume); budget 0 keeps every approximation gate closed. A budget
	// past the int64 range saturates: it admits every finite envelope.
	var budget int64
	if scaled := tc.epsTerm * float64(red.scale); scaled >= math.MaxInt64 {
		budget = math.MaxInt64
	} else if scaled > 0 {
		budget = int64(scaled)
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
		// degrade every later StepFrom to cold Dijkstras. The identical
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
	plan := tc.fanOutPlan(g, &bp)
	if tc.stats != nil {
		tc.stats.plans[plan].Add(1)
	}
	run, err := tc.fanOutAs(g, spec, o, &bp, plan)
	if err != nil {
		return termVal{}, err
	}
	tv, nw, err := tc.solveRows(&bp, run, budgetScaled, plan == planColumns, donor)
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
// feasible upper end (counted as coarse when the rows were filled by
// column).
//
// Entropic stage: with a budget, the Sinkhorn envelope (termSinkhorn)
// combined with the row bounds may certify the term instead.
//
// Otherwise flowSolve computes the exact value, warm from donor when
// one is given. The solved network is returned only in that case;
// runs is left to the caller.
func (tc termCtx) solveTerm(bp *bipartite, budgetScaled int64, coarse bool, donor *warmBasis) (termVal, *flow.Network, error) {
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
	if budgetScaled > 0 {
		if tv, ok := tc.termSinkhorn(bp, lb, ub, budgetScaled); ok {
			return tv, nil, nil
		}
	}
	return tc.flowSolve(bp, donor)
}

// solveRows is solveTerm over rows the fan-out may have left partial
// (see bipartite.radius). Their flow instance holds only some cells
// (see bipartite.network), so the plan is checked in rounds, each
// re-solved warm from the network's own basis:
//
//   - A left-out cell whose cost, a lower bound where the cell is
//     unknown, has a negative reduced cost under the solved potentials
//     joins the network. With none, the plan is optimal over every
//     cell at those costs.
//   - Then, if the plan ships over an unknown cell, the rows it
//     crossed are completed and their cells repriced at the true
//     distances; with none crossed, the plan is optimal under the true
//     distances too (see bipartite.crossedRows).
//
// Each round adds a cell or completes a row, so the rounds end. coarse
// is solveTerm's.
func (tc termCtx) solveRows(bp *bipartite, run rowRun, budgetScaled int64, coarse bool, donor *warmBasis) (termVal, *flow.Network, error) {
	tv, nw, err := tc.solveTerm(bp, budgetScaled, coarse, donor)
	for err == nil && nw != nil && bp.radius != nil {
		if bp.priceIn(nw) > 0 {
			if tc.stats != nil {
				tc.stats.pricedResolves.Add(1)
			}
		} else {
			crossed := bp.crossedRows(nw)
			if len(crossed) == 0 {
				break
			}
			if err := tc.runTasks(len(crossed), func(sc *scratch, i int) { run(sc, int(crossed[i]), 0) }); err != nil {
				return termVal{}, nil, err
			}
			bp.reprice(nw, crossed)
			if tc.stats != nil {
				tc.stats.crossedResolves.Add(1)
			}
		}
		tv, err = tc.resolve(bp, nw)
	}
	return tv, nw, err
}

// resolve re-solves nw, bp's solved network after arcs were added or
// repriced, warm from its own flow and potentials; a basis the repair
// finds to be junk is solved cold instead.
func (tc termCtx) resolve(bp *bipartite, nw *flow.Network) (termVal, error) {
	start := time.Now()
	cost, warm, err := nw.SolveSSPWarm(tc.ctx)
	if !warm && err == nil {
		cost, err = solveBipartite(tc.ctx, nw, bp.red)
		if tc.stats != nil && err == nil {
			tc.stats.flowSolves.Add(1)
		}
	}
	if tc.stats != nil {
		addPhase(&tc.stats.flowNanos, start)
	}
	if err != nil {
		return termVal{}, err
	}
	return exactVal(float64(cost)/float64(bp.red.scale), 0), nil
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

// columnFanOutRatio is the sources per column past which a term whose
// rows must be complete runs by column (see byColumns), fixed by
// BenchmarkFanOutOrientation (term_bench_test.go; numbers in
// docs/PERFORMANCE.md, "Strategy selection"). Against 64 bank columns
// complete rows won at 2 sources per column and lost at 4. With 50
// opposite users added, whose scattered single-user columns make every
// row run cover more of the graph, they won at 0.56 and lost at 1.12
// and 2.25: the rule gives up 1.06x at 1.12 rather than 1.9x at 2.25.
const columnFanOutRatio = 2

// fanOutPlan is how termBipartite fills a term's rows.
type fanOutPlan uint8

const (
	// planRows runs one complete search per source.
	planRows fanOutPlan = iota
	// planPartialRows runs one search per source that stops once
	// partialRowColumns columns settle (see partialRows).
	planPartialRows
	// planColumns runs one search per column over the transpose (see
	// columnRuns).
	planColumns
	// planKNearest runs one search over the transpose from every column
	// at once that finds each source's kNearestColumns nearest columns
	// (see kNearestRows); its rows are partial like planPartialRows'.
	planKNearest
)

// fanOutPlan picks how termBipartite fills bp's rows. A term whose
// rows may be partial runs the K-nearest search once its sources
// outnumber kNearestFanOutRatio times its columns, and partial rows
// otherwise; every other term runs by column or by complete rows, as
// byColumns picks.
func (tc termCtx) fanOutPlan(g *graph.Digraph, bp *bipartite) fanOutPlan {
	switch {
	case !tc.partialRows(g, bp):
		if tc.byColumns(bp) {
			return planColumns
		}
		return planRows
	case kNearestFanOutRatio*bp.nCols() < len(bp.sources):
		return planKNearest
	}
	return planPartialRows
}

// byColumns reports whether bp's complete rows are filled by column:
// one search per column instead of one per source. Each run costs
// about a ball around its source set, so the side with fewer runs wins
// once the other has columnFanOutRatio times as many. An exact term
// takes the column side only where the row side would retain nothing
// (see retainsRows); a budgeted term takes it regardless. On the small
// preset of sndbench's approx experiment (one worker, 2-vCPU Xeon), a
// budgeted Matrix took 14.2 s on complete rows kept for retention and
// 1.9 s by column. Both sides fill the same rows, so the choice moves
// no bit.
func (tc termCtx) byColumns(bp *bipartite) bool {
	return columnFanOutRatio*bp.nCols() < len(bp.sources) && (tc.epsTerm > 0 || !tc.retainsRows())
}

// retainsRows reports whether the ground provider keeps what the row
// side's runs compute. It keeps nothing with no provider, or in a
// Series over an untracked reference state. A tracked state's source
// runs build the trees StepFrom repairs from, and Pairs and Matrix retain
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

// kNearestColumns is the labels per vertex of the K-nearest search
// (see kNearestRows). Its searches cost 7-16 ms at K = 1 to 16 on
// BenchmarkFanOutOrientation's 512-source term, so K trades the known
// cells of the flow instance against its pricing and crossed-row
// rounds: on analyze, K = 8 ran no faster than 4 (docs/PERFORMANCE.md,
// "Strategy selection").
const kNearestColumns = 4

// kNearestFanOutRatio is the sources per column past which a term
// whose rows may be partial runs the K-nearest search instead of
// partial rows (see fanOutPlan). Filling and solving one term of
// BenchmarkFanOutOrientation's shape against 64 banks, partial rows
// won at 0.75 sources per column and lost from 1 on; at 8 the K-nearest
// term cost 35 ms against 120-140 ms by column (docs/PERFORMANCE.md,
// "Strategy selection").
const kNearestFanOutRatio = 1

// partialRows reports whether bp's rows may be left partial: each
// source's row known only up to its nearest columns, the farther cells
// unknown (see bipartite.radius and solveRows, which checks the plan).
// It takes terms whose banks absorb (residual suppliers are the
// sources), with more columns than partialRowColumns but no more than
// pruneLimit, on the exact pipeline (no error budget), where the row
// side retains nothing. Where the banks supply, plans reach far
// columns: on the same analyze terms every such plan crossed unknown
// cells twice, paying three solves and every row. Retained rows must
// be complete.
func (tc termCtx) partialRows(g *graph.Digraph, bp *bipartite) bool {
	return tc.epsTerm == 0 && !bp.rev && bp.nCols() > partialRowColumns &&
		bp.nCols() <= pruneLimit(g.N()) && !tc.retainsRows()
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
// same rows, bit for bit, whatever the column count. The provider's
// retained rows differ from them only past inf, where bp.capped
// saturates every value alike. fanOut fills complete rows;
// termBipartite may ask fanOutAs for partial ones.
//
// Runs are sub-tasks with a fixed output slot (a row, or a column of
// every row), so when a help pool is present idle workers steal them,
// with rows — and every downstream bit — identical to the sequential
// order.
func (tc termCtx) fanOut(g *graph.Digraph, spec termSpec, o Options, bp *bipartite) error {
	plan := planRows
	if tc.byColumns(bp) {
		plan = planColumns
	}
	_, err := tc.fanOutAs(g, spec, o, bp, plan)
	return err
}

// fanOutAs is fanOut by the given plan. It returns the row side's run
// (nil by column), which completes a row when called with need 0.
func (tc termCtx) fanOutAs(g *graph.Digraph, spec termSpec, o Options, bp *bipartite, plan fanOutPlan) (rowRun, error) {
	tc.sc.rowBuf = tc.sc.rowBuf[:0] // rows of the previous term are dead
	rows := tc.sc.takeRowHeaders(len(bp.sources))
	for i := range rows {
		rows[i] = tc.sc.takeRow(bp.nCols())
	}
	bp.rows, bp.radius = rows, nil
	if plan == planColumns {
		return nil, tc.runTasks(bp.nCols(), tc.columnRuns(g, spec, o, bp, rows))
	}
	run := tc.sourceRuns(g, spec, o, bp)
	need := 0
	switch plan {
	case planKNearest:
		bp.radius = tc.sc.takeRow(len(bp.sources))
		return run, tc.kNearestRows(g, spec, o, bp)
	case planPartialRows:
		bp.radius = tc.sc.takeRow(len(bp.sources))
		need = partialRowColumns
	}
	return run, tc.runTasks(len(bp.sources), func(sc *scratch, i int) { run(sc, i, need) })
}

// runTasks runs the fan-out sub-tasks 0..total-1, split across the help
// pool's idle workers when there is one, and charges the time to SSSP.
func (tc termCtx) runTasks(total int, run func(sc *scratch, i int)) error {
	start := time.Now()
	if tc.help != nil && total > 1 {
		if err := tc.help.runFanout(tc.ctx, tc.sc, total, run); err != nil {
			return err
		}
	} else {
		for i := 0; i < total; i++ {
			if err := tc.cancelled(); err != nil {
				return err
			}
			run(tc.sc, i)
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
// and by the grouped goal search on the no-provider, budget-exhausted
// and Series-miss paths, however many columns the term has.
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
	tc.sc.targets, tc.sc.cols = targets, cols

	maxCost := o.Costs.MaxCost()
	rows := bp.rows
	return func(sc *scratch, i, need int) {
		s := bp.sources[i]
		out := rows[i]
		if bp.radius != nil {
			bp.radius[i] = sssp.Unreachable
		}
		if tc.prov != nil && tc.prov.rowGoals(tc.refHash, spec.ref, spec.op, bp.rev, s, srcW, targets, cols, out, !tc.series, sc) {
			return
		}
		r := sssp.DijkstraGoalsInto(srcGraph, srcW, bp.sources[i:i+1], targets, cols, need, maxCost, bp.inf, out, &sc.goals)
		bp.boundRow(i, r) // need > 0 when r < Unreachable, so bp.radius is in place
	}
}

// kNearestRows fills bp's rows with one sssp.DijkstraKNearestInto over
// the transpose of the row side's graph: every column's entities (the opposite users,
// and every member of each bank) are its sources, labelled with their
// column, and the term's sources its targets. Each row is then exact
// up to its kNearestColumns-th column (ties included) and partial past
// it, as a partial row is; sourceRuns, which fanOutAs set up first,
// completes it. The search is one task: it cannot be split across the
// help pool's workers.
func (tc termCtx) kNearestRows(g *graph.Digraph, spec termSpec, o Options, bp *bipartite) error {
	if err := tc.cancelled(); err != nil {
		return err
	}
	start := time.Now()
	colGraph := g.Reverse()
	if bp.rev {
		colGraph = g
	}
	colW := tc.groundWeights(g, spec, o, !bp.rev)
	sssp.DijkstraKNearestInto(colGraph, colW, tc.sc.targets, tc.sc.cols, bp.nCols(), bp.sources,
		kNearestColumns, o.Costs.MaxCost(), bp.inf, bp.rows, bp.radius, &tc.sc.knear)
	for k, r := range bp.radius {
		bp.boundRow(k, r)
	}
	if tc.stats != nil {
		addPhase(&tc.stats.ssspNanos, start)
	}
	return nil
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

// pruneLimit is the target count, on a graph of n users, past which a
// goal search's ball is about the whole graph: the search must settle
// a ball reaching every target, and once targets are plentiful
// relative to the graph that ball is the graph itself. partialRows
// stops at it: a partial row that settles that many columns saves
// nothing over a complete one (a bank is one column, settled by its
// nearest member).
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
