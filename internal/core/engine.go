package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Workers is the number of concurrent term evaluations. <= 0
	// selects runtime.GOMAXPROCS(0).
	Workers int
	// GroundCacheBytes budgets the shared ground-distance provider (edge
	// costs and shortest-path trees keyed by reference state and
	// opinion), which Matrix and Series hit whenever two pairs share a
	// reference state and which serves Network.StepFrom's delta
	// traffic by cost patching and tree repair. 0 selects 128 MiB;
	// negative disables the provider.
	GroundCacheBytes int64
	// WarmCacheBytes budgets the solved-basis retention behind
	// warm-started transportation solves: the engine keeps one ring of
	// recently solved term instances (value, routed flow, potentials),
	// shared by all workers and batches, and serves repeated instances
	// whole, or transplants overlapping ones into a warm SSP drain. The
	// budget is engine-wide; the newest basis is kept whole even when
	// it alone exceeds it. 0 selects 64 MiB; negative disables
	// retention, which pins cold solves.
	WarmCacheBytes int64
}

const (
	defaultGroundCacheBytes = 128 << 20
	defaultWarmCacheBytes   = 64 << 20
)

// StatePair is one (A, B) input of a batch distance computation.
type StatePair struct {
	A, B opinion.State
}

// Engine is a reusable, concurrency-safe SND compute layer over one
// fixed graph. It schedules the four EMD* terms of every requested
// distance across a worker pool; each worker owns a scratch arena
// (SSSP buffers, row storage, a reusable flow network) so the hot path
// is allocation-free after warmup, and all workers share a bounded
// ground-distance cache keyed by (reference state, opinion) and a
// bounded ring of solved bases for warm starts.
//
// All methods are safe for concurrent use and return results
// bit-identical whatever the worker count, and to the four terms
// evaluated one after another.
//
// # Lifetime
//
// An Engine owns no goroutines between calls: workers are spawned per
// batch and exit when the batch drains, so an idle Engine costs only
// memory — the shared ground-distance cache and warm-basis ring plus
// each worker's scratch arena. Close releases the ground cache
// immediately and marks the engine closed (further calls return
// ErrEngineClosed); the ring and the scratch arenas are reclaimed by
// the garbage collector once the Engine itself is unreferenced. Close
// is safe to call at any time, including concurrently with in-flight
// batches (they run to completion against an emptied cache).
//
// # Cancellation
//
// Every batch method takes a context. Cancellation is observed at term
// boundaries (between the four EMD* evaluations of each pair), between
// the SSSP runs inside a term, and between the augmentations/pushes of
// the min-cost-flow solvers, so a cancelled request stops burning the
// pool within one such step. With an un-cancelled context the checks
// are pure loads: results are bit-identical with or without deadline.
type Engine struct {
	g       *graph.Digraph
	opts    Options
	workers int
	prov    *groundProvider
	warm    *warmCache // nil when warm-starting is disabled
	pool    sync.Pool  // *scratch
	closed  atomic.Bool
	stats   engineStats
}

// NewEngine builds an engine over g with the given SND options.
func NewEngine(g *graph.Digraph, opts Options, cfg EngineConfig) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dopts := opts.withDefaults()
	var prov *groundProvider
	if cfg.GroundCacheBytes >= 0 {
		budget := cfg.GroundCacheBytes
		if budget == 0 {
			budget = defaultGroundCacheBytes
		}
		prov = newGroundProvider(g, dopts.Costs, budget,
			infCost(g.N(), dopts.Costs.MaxCost(), dopts.EscapeHops))
	}
	// Build the transpose up front for the bipartite route's reverse
	// runs, so the first batch doesn't pay the O(N+M) build inside a
	// worker (concurrent first use is safe — Reverse is
	// sync.Once-guarded — but serializes the pool behind one builder).
	g.Reverse()
	warmBudget := cfg.WarmCacheBytes
	if warmBudget == 0 {
		warmBudget = defaultWarmCacheBytes
	}
	return &Engine{
		g:       g,
		opts:    dopts,
		workers: workers,
		prov:    prov,
		warm:    newWarmCache(warmBudget),
	}
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Close marks the engine closed and releases the shared ground-distance
// cache. Subsequent calls return an error wrapping ErrEngineClosed;
// batches already in flight run to completion. Close is idempotent and
// always returns nil (it satisfies io.Closer).
func (e *Engine) Close() error {
	e.closed.Store(true)
	if e.prov != nil {
		e.prov.clear()
	}
	return nil
}

// Closed reports whether Close has been called. Handles wrapping an
// Engine (snd.Network) derive their own closed state from this, so
// closing through either surface closes both.
func (e *Engine) Closed() bool { return e.closed.Load() }

func (e *Engine) closedErr() error {
	if e.closed.Load() {
		return fmt.Errorf("core: %w", ErrEngineClosed)
	}
	return nil
}

// AdvanceRef tells the ground-distance provider that reference state
// next derives from prev by changing the opinions of the listed users.
// Incremental-state callers (snd.Network.StepFrom/ApplyFrom) report
// every delta through this; the provider then serves next's edge costs
// by patching prev's over the dirty edges and next's shortest-path trees by
// Ramalingam-Reps repair of prev's, making delta-step cost scale with
// |changed| instead of the graph. Results are bit-identical to full
// recomputation. The call itself does no work beyond bookkeeping;
// derivations happen lazily on first use.
func (e *Engine) AdvanceRef(prev, next opinion.State, changed []int32) {
	if e.prov != nil {
		e.prov.advance(prev, next, changed)
	}
}

// Distance computes SND(a, b), evaluating the four EMD* terms of eq. 3
// concurrently.
func (e *Engine) Distance(ctx context.Context, a, b opinion.State) (Result, error) {
	res, err := e.Pairs(ctx, []StatePair{{A: a, B: b}})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Pairs computes SND for every requested pair, scheduling all 4*len
// terms across the worker pool. Results are aligned with pairs. When
// ctx is cancelled mid-batch, Pairs stops scheduling work and returns
// ctx.Err(). Pairs is exact; PairsEps takes an error budget.
func (e *Engine) Pairs(ctx context.Context, pairs []StatePair) ([]Result, error) {
	return e.PairsEps(ctx, pairs, 0)
}

// DistanceEps is Distance under an explicit certified error budget:
// the result's [LB, UB] envelope contains the exact distance, its
// width is at most eps, and the reported SND is the envelope's upper
// end (so |SND - exact| <= eps). eps == 0 is the exact pipeline,
// bit-identical to Distance. A budgeted result does not depend on the
// engine's history: budgeted terms neither read nor store warm bases.
func (e *Engine) DistanceEps(ctx context.Context, a, b opinion.State, eps float64) (Result, error) {
	res, err := e.PairsEps(ctx, []StatePair{{A: a, B: b}}, eps)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// PairsEps is Pairs under an explicit certified error budget (see
// DistanceEps for the contract). Negative or NaN budgets are rejected.
func (e *Engine) PairsEps(ctx context.Context, pairs []StatePair, eps float64) ([]Result, error) {
	return e.pairsEps(ctx, pairs, eps, false)
}

// pairsEps is PairsEps; series marks the terms of a Series batch (see
// termCtx.series).
func (e *Engine) pairsEps(ctx context.Context, pairs []StatePair, eps float64, series bool) ([]Result, error) {
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	if err := validEps(eps); err != nil {
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
	if len(pairs) == 0 {
		return nil, nil
	}
	e.stats.pairsRequested.Add(int64(len(pairs)))
	// Reference-state fingerprints key the ground provider and the
	// warm-basis ring; terms 0-1 of a pair use A's ground distance,
	// terms 2-3 use B's.
	hashes := make([][2]hashKey, len(pairs))
	for i := range pairs {
		hashes[i][0] = hashState(pairs[i].A)
		hashes[i][1] = hashState(pairs[i].B)
	}
	results := make([]Result, len(pairs))
	// Bounds-first decided pass: identical states are at distance zero
	// by definition (every term reduces empty), so they skip scheduling
	// entirely. The fingerprint prefilters; the literal diff confirms,
	// so a fingerprint collision cannot decide a wrong value.
	var todo []StatePair
	var todoHash [][2]hashKey
	var todoIdx []int
	for i := range pairs {
		if hashes[i][0] == hashes[i][1] && pairs[i].A.DiffCount(pairs[i].B) == 0 {
			e.stats.pairsDecided.Add(1)
			continue
		}
		todo = append(todo, pairs[i])
		todoHash = append(todoHash, hashes[i])
		todoIdx = append(todoIdx, i)
	}
	if len(todo) == 0 {
		return results, nil
	}
	outs, err := e.runTerms(ctx, todo, todoHash, eps, series)
	if err != nil {
		return nil, err
	}
	for k, i := range todoIdx {
		r := &results[i]
		r.NDelta = todo[k].A.DiffCount(todo[k].B)
		var lbs, ubs [4]float64
		for t := 0; t < 4; t++ {
			o := outs[4*k+t]
			r.Terms[t] = o.val
			lbs[t], ubs[t] = o.lb, o.ub
			r.SSSPRuns += o.runs
			r.EnginesUsed[t] = o.used
		}
		r.SND = (r.Terms[0] + r.Terms[1] + r.Terms[2] + r.Terms[3]) / 2
		// The envelope aggregates exactly as the value does, so on the
		// exact path (every term lb == ub == val) LB == UB == SND bit
		// for bit.
		r.LB = (lbs[0] + lbs[1] + lbs[2] + lbs[3]) / 2
		r.UB = (ubs[0] + ubs[1] + ubs[2] + ubs[3]) / 2
	}
	return results, nil
}

// validEps rejects budgets outside [0, +Inf).
func validEps(eps float64) error {
	if eps < 0 || eps != eps || eps > 1e300 {
		return fmt.Errorf("core: epsilon %v: %w", eps, ErrBadEpsilon)
	}
	return nil
}

// epsTermBudget splits a pair-level budget into the per-term budget of
// eq. 3: SND averages four terms with weight 1/2, so four term
// envelopes of width Epsilon/2 aggregate to a pair envelope of width
// at most Epsilon. The safety factor absorbs the float rounding of the
// aggregation, keeping the reported UB - LB <= Epsilon exactly.
func epsTermBudget(eps float64) float64 {
	return eps / 2 * (1 - 1e-9)
}

// Series computes the SND between every adjacent pair of states:
// out[i] = SND(states[i], states[i+1]). Adjacent pairs share reference
// states, so their edge costs hit the ground cache. Shortest-path rows
// are not retained for a Series: a reference state serves only its two
// adjacent pairs, whose rows overlap only for users who leave an
// opinion and return to it on the next tick, so each source runs the
// grouped goal search instead (tracked reference states, reported
// through AdvanceRef, still keep their trees).
func (e *Engine) Series(ctx context.Context, states []opinion.State) ([]float64, error) {
	results, err := e.SeriesEps(ctx, states, 0)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.SND
	}
	return out, nil
}

// SeriesEps is Series under an explicit certified error budget,
// returning the full per-transition Results (value, envelope, term
// breakdown) instead of bare values. eps == 0 reproduces the exact
// Series values bit for bit.
func (e *Engine) SeriesEps(ctx context.Context, states []opinion.State, eps float64) ([]Result, error) {
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	if len(states) < 2 {
		return nil, fmt.Errorf("core: have %d states: %w", len(states), ErrShortSeries)
	}
	pairs := make([]StatePair, len(states)-1)
	for i := range pairs {
		pairs[i] = StatePair{A: states[i], B: states[i+1]}
	}
	return e.pairsEps(ctx, pairs, eps, true)
}

// Matrix computes the full symmetric distance matrix of the given
// states, evaluating only the i < j pairs (SND is symmetric) and
// mirroring. The diagonal is zero. A bounds-first pass deduplicates
// content-identical states (their rows and columns coincide, and their
// mutual distance is zero by definition), so only distinct-state pairs
// pay exact solves; the returned matrix is bit-identical to evaluating
// every pair, since the engine's result is a pure function of state
// content.
func (e *Engine) Matrix(ctx context.Context, states []opinion.State) ([][]float64, error) {
	out, _, err := e.MatrixEps(ctx, states, 0)
	return out, err
}

// MatrixEps is Matrix under an explicit certified error budget. The
// second return is the largest envelope width (UB - LB) among the
// evaluated pairs — the achieved gap, at most eps; it is 0 on the
// exact path and for matrices decided entirely by deduplication.
func (e *Engine) MatrixEps(ctx context.Context, states []opinion.State, eps float64) ([][]float64, float64, error) {
	if err := e.closedErr(); err != nil {
		return nil, 0, err
	}
	if err := validEps(eps); err != nil {
		return nil, 0, err
	}
	n := len(states)
	// Validate up front (Pairs validates again, harmlessly): the dedup
	// pass below can answer without ever scheduling a pair, and the
	// screened and unscreened paths must reject invalid input alike.
	for i := range states {
		if err := e.opts.validate(e.g, states[i], states[i]); err != nil {
			return nil, 0, fmt.Errorf("core: state %d: %w", i, err)
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	if n < 2 {
		return out, 0, nil
	}
	// repOf[i] is the position of state i's representative in reps:
	// states with identical content (fingerprint prefilter, literal
	// diff confirms) share one representative.
	repOf := make([]int, n)
	var reps []int
	byHash := make(map[hashKey][]int, n)
	for i := 0; i < n; i++ {
		h := hashState(states[i])
		assigned := false
		for _, r := range byHash[h] {
			if states[i].DiffCount(states[reps[r]]) == 0 {
				repOf[i] = r
				assigned = true
				break
			}
		}
		if !assigned {
			repOf[i] = len(reps)
			byHash[h] = append(byHash[h], len(reps))
			reps = append(reps, i)
		}
	}
	u := len(reps)
	pairs := make([]StatePair, 0, u*(u-1)/2)
	for a := 0; a < u; a++ {
		for b := a + 1; b < u; b++ {
			pairs = append(pairs, StatePair{A: states[reps[a]], B: states[reps[b]]})
		}
	}
	// Entries elided by deduplication were decided without scheduling;
	// count them with the identical-pair decisions of Pairs.
	if elided := int64(n*(n-1)/2 - len(pairs)); elided > 0 {
		e.stats.pairsDecided.Add(elided)
	}
	if len(pairs) == 0 {
		return out, 0, nil
	}
	results, err := e.PairsEps(ctx, pairs, eps)
	if err != nil {
		return nil, 0, err
	}
	maxGap := 0.0
	for i := range results {
		if g := results[i].UB - results[i].LB; g > maxGap {
			maxGap = g
		}
	}
	// Distance between representatives a < b sits at pair index
	// a*(2u-a-1)/2 + (b-a-1) in the row-major i<j enumeration.
	at := func(a, b int) float64 {
		if a == b {
			return 0
		}
		flip := a > b
		if flip {
			a, b = b, a
		}
		r := &results[a*(2*u-a-1)/2+(b-a-1)]
		if flip {
			// The exhaustive enumeration would have evaluated this
			// entry with the states swapped, which swaps terms 0<->2
			// and 1<->3; re-aggregate in that order so the float sum
			// matches the unscreened matrix bit for bit.
			return (r.Terms[2] + r.Terms[3] + r.Terms[0] + r.Terms[1]) / 2
		}
		return r.SND
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := at(repOf[i], repOf[j])
			out[i][j] = d
			out[j][i] = d
		}
	}
	return out, maxGap, nil
}

// termOut is the result of one term-level task.
type termOut struct {
	termVal
	err error
}

// runTerms evaluates the 4*len(pairs) EMD* terms across the pool and
// returns them indexed as outs[4*pair+term], so aggregation order (and
// therefore every result bit) is independent of scheduling. hashes
// carries each pair's (A, B) reference-state fingerprints, computed by
// the caller. Workers observe ctx between terms (and pass it down into
// the SSSP and flow loops of each term), so a cancelled batch stops
// claiming work and runTerms returns ctx.Err(). series marks the terms
// of a Series batch (see termCtx.series).
//
// A batch with a budget (eps > 0) runs without the warm ring: an exact
// hit would return the exact value where a fresh engine returns the
// gate's envelope, and storing its bases would only grow the lookup's
// slot maps.
func (e *Engine) runTerms(ctx context.Context, pairs []StatePair, hashes [][2]hashKey, eps float64, series bool) ([]termOut, error) {
	total := 4 * len(pairs)
	outs := make([]termOut, total)
	epsTerm, warm := 0.0, e.warm
	if eps > 0 {
		epsTerm, warm = epsTermBudget(eps), nil
	}
	// All configured workers spawn even when the batch has fewer terms
	// than workers: a term's SSSP fan-out is split into sub-tasks, and
	// workers with no term of their own — including the ones a single
	// Distance call (4 terms) used to leave idle — steal those through
	// the help pool until the batch drains.
	workers := e.workers
	var hp *helpPool
	if workers > 1 {
		hp = newHelpPool()
	}
	var next, termsLeft atomic.Int64
	next.Store(-1)
	termsLeft.Store(int64(total))
	watchDone := make(chan struct{})
	if hp != nil {
		// The pool also closes on cancellation: workers stop claiming
		// terms without draining termsLeft, and waiting helpers must
		// still wake and exit.
		go func() {
			select {
			case <-ctx.Done():
				hp.close()
			case <-watchDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.getScratch()
			defer e.pool.Put(sc)
			for {
				if ctx.Err() != nil {
					break // cancelled: stop claiming terms
				}
				t := int(next.Add(1))
				if t >= total {
					break
				}
				pi, term := t/4, t%4
				spec := eqSpec(pairs[pi].A, pairs[pi].B, term)
				tc := termCtx{
					ctx:     ctx,
					sc:      sc,
					prov:    e.prov,
					warm:    warm,
					help:    hp,
					stats:   &e.stats,
					refHash: hashes[pi][term/2],
					epsTerm: epsTerm,
					series:  series,
				}
				tv, err := computeTerm(e.g, spec, e.opts, tc)
				if err != nil {
					err = fmt.Errorf("core: pair %d term %d (%s over D(%s)): %w",
						pi, term, spec.op, refName(term), err)
				}
				outs[t] = termOut{tv, err}
				if termsLeft.Add(-1) == 0 && hp != nil {
					hp.close()
				}
			}
			if hp != nil {
				hp.help(sc)
			}
		}()
	}
	wg.Wait()
	close(watchDone)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for t := range outs {
		if outs[t].err != nil {
			return nil, outs[t].err
		}
	}
	return outs, nil
}

func (e *Engine) getScratch() *scratch {
	if sc, ok := e.pool.Get().(*scratch); ok {
		return sc
	}
	return &scratch{}
}

// eqSpec returns the term-th EMD* term of eq. 3 for the pair (a, b).
func eqSpec(a, b opinion.State, term int) termSpec {
	switch term {
	case 0:
		return termSpec{op: opinion.Positive, p: a, q: b, ref: a}
	case 1:
		return termSpec{op: opinion.Negative, p: a, q: b, ref: a}
	case 2:
		return termSpec{op: opinion.Positive, p: b, q: a, ref: b}
	default:
		return termSpec{op: opinion.Negative, p: b, q: a, ref: b}
	}
}

// eqSpecs returns all four eq. 3 terms for the pair (a, b).
func eqSpecs(a, b opinion.State) [4]termSpec {
	return [4]termSpec{eqSpec(a, b, 0), eqSpec(a, b, 1), eqSpec(a, b, 2), eqSpec(a, b, 3)}
}

// scratch is one worker's reusable arena: SSSP buffers (full-run
// distance/parent storage, the goal-pruned run's self-resetting scratch,
// the pooled frontier queues), bulk row storage for the column-indexed
// ground-distance rows plus their header slice, the term's target list
// and its column map, and a flow network whose arc banks and solver
// buffers survive across term solves.
type scratch struct {
	res     sssp.Result
	goals   sssp.GoalsScratch
	knear   sssp.KNearestScratch
	fr      sssp.Frontier
	nw      *flow.Network
	rowBuf  []int64
	rows    [][]int64
	colBuf  []int64 // one column of a column-side fan-out run
	targets []int32
	cols    []int32

	// The slot arrays are the epoch-stamped user -> instance slot maps
	// warm-basis matching and transplants run on, and the map/bound
	// buffers are per-term transplant and bound-gate scratch.
	slotGen                    uint32
	slotEpoch                  []uint32
	slotSup, slotCon, slotBank []int32
	mapRows, mapCols, mapNodes []int32
	boundBuf                   []int64
	// arcBuf backs bipartite.arcs and forced bipartite.forced, for the
	// term being solved.
	arcBuf, forced []int32
}

// takeArcs returns an n-sized int32 buffer for bipartite.arcs.
func (sc *scratch) takeArcs(n int) []int32 {
	return sc.takeMap(&sc.arcBuf, n)
}

// network returns a flow network with n nodes and room for hintArcs
// arcs, reusing the worker's previous network when possible.
func (sc *scratch) network(n, hintArcs int) *flow.Network {
	if sc.nw == nil {
		sc.nw = flow.NewNetwork(n, hintArcs)
		return sc.nw
	}
	sc.nw.Reset(n, hintArcs)
	return sc.nw
}

// takeRowHeaders returns a k-sized row-header slice from the arena
// (the [][]int64 whose entries index this term's rows), growing it as
// needed; the headers are overwritten every term instead of allocated.
func (sc *scratch) takeRowHeaders(k int) [][]int64 {
	if cap(sc.rows) < k {
		sc.rows = make([][]int64, k)
	}
	sc.rows = sc.rows[:k]
	return sc.rows
}

// takeTargets returns the reusable target-list and column-map buffers,
// emptied, with capacity for at least hint entries; the caller appends
// and stores the final slices back so growth persists across terms.
func (sc *scratch) takeTargets(hint int) (targets, cols []int32) {
	if cap(sc.targets) < hint {
		sc.targets = make([]int32, 0, hint)
	}
	if cap(sc.cols) < hint {
		sc.cols = make([]int32, 0, hint)
	}
	return sc.targets[:0], sc.cols[:0]
}

// takeRow returns an n-sized row from the arena, growing it as needed.
func (sc *scratch) takeRow(n int) []int64 {
	if len(sc.rowBuf)+n > cap(sc.rowBuf) {
		grow := 2 * cap(sc.rowBuf)
		if grow < 64*n {
			grow = 64 * n
		}
		// Rows already handed out keep their old backing array alive;
		// only future rows land in the new block.
		sc.rowBuf = make([]int64, 0, grow)
	}
	off := len(sc.rowBuf)
	sc.rowBuf = sc.rowBuf[:off+n]
	return sc.rowBuf[off : off+n : off+n]
}

// takeColumn returns the worker's n-sized column buffer, growing it as
// needed. A column-side fan-out run fills it, then scatters it into its
// column of the term's rows.
func (sc *scratch) takeColumn(n int) []int64 {
	if cap(sc.colBuf) < n {
		sc.colBuf = make([]int64, n)
	}
	return sc.colBuf[:n]
}

// --- reference-state fingerprints ---

// hashKey is a 128-bit state fingerprint (two independent 64-bit
// hashes), which makes silent collisions across reference states
// negligible without retaining the states themselves. The ground
// provider keys its entries — and the delta lineage between them — by
// these.
type hashKey [2]uint64

func hashState(st opinion.State) hashKey {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h1 := uint64(fnvOffset)
	h2 := uint64(len(st)) + 0x9e3779b97f4a7c15
	for _, o := range st {
		h1 = (h1 ^ uint64(uint8(o))) * fnvPrime
		h2 += uint64(uint8(o)) + 0x9e3779b97f4a7c15 + (h2 << 6) + (h2 >> 2)
	}
	return hashKey{h1, h2}
}
