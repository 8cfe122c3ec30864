package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"snd/internal/opinion"
)

// This file implements lower-bound screening for the flow stage over
// the integer reduced instances of the Theorem 4 pipeline.
//
// Two layers exist:
//
//   - Term gate (termBoundsFromRows): once a term's SSSP rows are in
//     hand, an admissible integer lower bound (max of the supply-side
//     and demand-side nearest-target partitions) and a feasible greedy
//     upper bound cost O(rows) to compute. When they coincide the term
//     value is decided exactly and the flow solve is skipped. Matrix,
//     Series, and Pairs traffic all pass through it.
//   - Pair bounds (Engine.LowerBounds): an admissible lower bound on
//     the whole SND value of a pair, with no SSSP fan-out and no flow
//     solve: the mass-mismatch term |sum P - sum Q| * Gamma of each of
//     the four eq. 3 terms, refined by per-bin nearest-target row
//     minima whenever the ground provider already retains the needed
//     rows (nearest-neighbor traffic over a shared reference state
//     accumulates exactly those rows). Bound-first consumers — the
//     search index's nearest-neighbor scan, and any caller screening
//     pairs against a threshold — evaluate exact distances only for
//     pairs the bound cannot exclude; the anomaly pipeline inherits
//     the gates through its Series batch rather than a dedicated
//     prefilter.
//
// Both layers are exact-value-preserving: a gate fires only when the
// bound pins the integer optimum, and screening consumers are required
// to fall back to exact solves whenever a bound is not decisive. The
// package tests pin the gated pipeline against an unscreened reference
// that solves every term (unoptimizedDistance).

// termBoundsFromRows computes admissible integer bounds on the scaled
// optimal transportation cost of the instance bp from its
// column-indexed rows (rows[k][j]: source k to opposite entity j for
// j < nOpp; rows[k][nOpp+b]: source k to bank b's nearest member).
//
// The lower bound is the larger of the two shipment partitions: every
// source-side entity ships (or receives) red.scale units at no less
// than its nearest-target cost, and every target-side entity turns
// over its declared units at no less than its nearest-source cost,
// with bank arcs paying gamma on top of the member distance. The upper
// bound is the cost of a feasible greedy plan (each source fills up at
// its cheapest remaining targets). lb == ub therefore pins the exact
// optimum.
//
// On partial rows an unknown cell holds a lower bound on its distance,
// which keeps the lower bound admissible; the greedy plan charges it
// inf instead (plus gamma on a bank column), no less than the cell can
// cost, which keeps the upper bound feasible. The unknown cells the
// greedy plan ships on go to bp.forced: with the known cells they hold
// a feasible plan, which bipartite.network relies on.
func termBoundsFromRows(bp *bipartite, sc *scratch) (lb, ub int64) {
	rows, nOpp, gamma := bp.rows, bp.nOpp(), bp.gamma
	nSrc := len(rows)
	nB := len(bp.red.banks)
	scale := bp.red.scale
	if nSrc == 0 {
		return 0, 0 // no sources means an empty instance (balance forces it)
	}
	ents := nOpp + nB
	buf := sc.takeBoundBuf(2*ents + nB)
	colMin, rem, bmins := buf[:ents], buf[ents:2*ents], buf[2*ents:]
	for j := 0; j < ents; j++ {
		colMin[j] = math.MaxInt64
		rem[j] = scale
	}
	for b := 0; b < nB; b++ {
		rem[nOpp+b] = bp.red.banks[b].units
	}

	// One pass per source computes its row minima (bank costs cached in
	// bmins) for the lower bound,
	// then immediately runs the greedy upper-bound fill for that source
	// against the shared remaining-capacity array. The greedy plan is
	// feasible: each (source, target) arc is visited at most once, so
	// per-arc shipments respect the assembled capacities (scale on
	// opposite arcs, min(units, scale) on bank arcs).
	var srcSide, tgtSide int64
	forced := sc.forced[:0]
	defer func() { sc.forced, bp.forced = forced, forced }()
	for k := 0; k < nSrc; k++ {
		row := rows[k]
		best := int64(math.MaxInt64)
		for j := 0; j < nOpp; j++ {
			d := bp.capped(row[j])
			if d < best {
				best = d
			}
			if d < colMin[j] {
				colMin[j] = d
			}
		}
		for b := 0; b < nB; b++ {
			d := gamma + bp.capped(row[nOpp+b])
			bmins[b] = d
			if d < best {
				best = d
			}
			if d < colMin[nOpp+b] {
				colMin[nOpp+b] = d
			}
		}
		srcSide += scale * best

		known := int64(math.MaxInt64) // cells past it cost inf in the greedy plan
		if bp.radius != nil {
			known = bp.radius[k]
		}
		need := scale
		for need > 0 {
			best, bestJ := int64(math.MaxInt64), -1
			for j := 0; j < nOpp; j++ {
				if rem[j] <= 0 {
					continue
				}
				d := bp.capped(row[j])
				if row[j] > known {
					d = bp.inf
				}
				if d < best {
					best, bestJ = d, j
				}
			}
			for b := 0; b < nB; b++ {
				if rem[nOpp+b] <= 0 {
					continue
				}
				d := bmins[b]
				if row[nOpp+b] > known {
					d = gamma + bp.inf
				}
				if d < best {
					best, bestJ = d, nOpp+b
				}
			}
			if bestJ < 0 {
				// Cannot happen on a balanced instance; make the gate
				// a no-op rather than deciding a wrong value.
				return 0, math.MaxInt64
			}
			if row[bestJ] > known {
				forced = append(forced, int32(k*ents+bestJ))
			}
			ship := need
			if rem[bestJ] < ship {
				ship = rem[bestJ]
			}
			rem[bestJ] -= ship
			need -= ship
			ub += ship * best
		}
	}
	for j := 0; j < nOpp; j++ {
		tgtSide += scale * colMin[j]
	}
	for b := 0; b < nB; b++ {
		tgtSide += bp.red.banks[b].units * colMin[nOpp+b]
	}
	lb = srcSide
	if tgtSide > lb {
		lb = tgtSide
	}
	return lb, ub
}

// takeBoundBuf returns an n-sized int64 buffer from the arena.
func (sc *scratch) takeBoundBuf(n int) []int64 {
	if cap(sc.boundBuf) < n {
		sc.boundBuf = make([]int64, n)
	}
	sc.boundBuf = sc.boundBuf[:n]
	return sc.boundBuf
}

// LowerBounds returns an admissible lower bound on SND for every
// requested pair — bounds[i] <= Pairs(ctx, pairs)[i].SND, exactly —
// computed without any SSSP fan-out or flow solve: the per-term
// mass-mismatch penalty |sum P - sum Q| * Gamma, refined by per-bin
// nearest-target row minima whenever the ground-distance provider
// already retains the needed rows. The method exists for bound-first
// consumers (nearest-neighbor search, threshold screens) that pay
// exact evaluations only for pairs the bound cannot exclude.
func (e *Engine) LowerBounds(ctx context.Context, pairs []StatePair) ([]float64, error) {
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range pairs {
		if err := e.opts.validate(e.g, pairs[i].A, pairs[i].B); err != nil {
			return nil, fmt.Errorf("core: pair %d: %w", i, err)
		}
	}
	out := make([]float64, len(pairs))
	start := time.Now()
	defer addPhase(&e.stats.boundNanos, start)
	for i := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = e.pairLowerBound(pairs[i].A, pairs[i].B)
		e.stats.pairBounds.Add(1)
	}
	return out, nil
}

// pairLowerBound sums the four eq. 3 term lower bounds and halves, as
// eq. 3 does with the exact terms.
func (e *Engine) pairLowerBound(a, b opinion.State) float64 {
	var hashA, hashB hashKey
	if e.prov != nil {
		hashA, hashB = hashState(a), hashState(b)
	}
	total := 0.0
	for t := 0; t < 4; t++ {
		spec := eqSpec(a, b, t)
		ref := hashA
		if t >= 2 {
			ref = hashB
		}
		total += e.termLowerBound(spec, ref)
	}
	return total / 2
}

// termLowerBound bounds one EMD* term from below: the mass-mismatch
// term, refined by the nearest-target minima of whatever provider rows
// are already retained (missing rows contribute zero, which keeps the
// bound admissible).
func (e *Engine) termLowerBound(spec termSpec, ref hashKey) float64 {
	n := e.g.N()
	red := reduce(spec, e.opts.Clusters, n)
	if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
		return 0
	}
	delta := red.sumP - red.sumQ
	if delta < 0 {
		delta = -delta
	}
	lb := float64(delta * e.opts.Gamma)
	if e.prov == nil {
		return lb
	}
	// Row refinement: each source-side entity ships (or receives) its
	// scale units at no less than its nearest-target cost. Only
	// already-retained rows are consulted — the point is to bound
	// without paying any shortest-path work.
	bp := newBipartite(red, e.opts.Gamma, infCost(n, e.opts.Costs.MaxCost(), e.opts.EscapeHops))
	var rowSide int64
	for _, s := range bp.sources {
		dist, compact, ok := e.prov.peekRow(ref, spec.op, bp.rev, s)
		if !ok {
			continue
		}
		at := func(u int32) int64 {
			if dist != nil {
				return bp.capped(dist[u])
			}
			return int64(compact[u]) // compact rows are pre-capped at inf
		}
		best := int64(math.MaxInt64)
		for _, u := range bp.opposite {
			if d := at(u); d < best {
				best = d
			}
		}
		for b := range red.banks {
			bm := int64(math.MaxInt64)
			for _, u := range red.banks[b].members {
				if d := at(u); d < bm {
					bm = d
				}
			}
			if d := bp.gamma + bm; d < best {
				best = d
			}
		}
		if best < math.MaxInt64 {
			rowSide += best
		}
	}
	if rs := float64(rowSide); rs > lb {
		lb = rs
	}
	return lb
}
