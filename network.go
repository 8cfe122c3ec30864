package snd

import (
	"context"
	"fmt"

	"snd/internal/anomaly"
	"snd/internal/core"
	"snd/internal/predict"
	"snd/internal/search"
)

// Structured sentinel errors. Every validation failure of the handle
// API wraps exactly one of these; branch with errors.Is, not string
// matching. The sentinels are immutable values, safe to compare from
// any goroutine.
var (
	// ErrStateSize reports a state or delta whose shape does not fit
	// the network: wrong user count, or a change addressing a user
	// outside [0, n).
	ErrStateSize = core.ErrStateSize
	// ErrInvalidOpinion reports an opinion outside
	// {Negative, Neutral, Positive}.
	ErrInvalidOpinion = core.ErrInvalidOpinion
	// ErrClusterLabels reports Options.Clusters whose length does not
	// match the network's user count.
	ErrClusterLabels = core.ErrClusterLabels
	// ErrShortSeries reports a series workload (Series,
	// DetectAnomalies) with fewer than two states.
	ErrShortSeries = core.ErrShortSeries
	// ErrEngineClosed reports a call on a closed Network (or Engine).
	ErrEngineClosed = core.ErrEngineClosed
	// ErrBadEpsilon reports an invalid certified-error budget handed to
	// the Eps entry points: negative, NaN, or absurdly large.
	ErrBadEpsilon = core.ErrBadEpsilon
	// ErrDeltaIndex reports an invalid StateDelta entry: a change
	// addressing a user outside [0, n), or carrying an opinion value
	// outside {Negative, Neutral, Positive}. Such failures also wrap
	// the matching shape sentinel (ErrStateSize or ErrInvalidOpinion)
	// for callers branching on the older errors.
	ErrDeltaIndex = core.ErrDeltaIndex
)

// OpinionChange is one entry of a StateDelta: user User's opinion
// becomes Opinion. It is a plain value; copies are independent.
type OpinionChange struct {
	User    int
	Opinion Opinion
}

// StateDelta is a sparse state update: the users whose opinion changed
// since the state it applies to, in any order. Duplicate users are
// allowed; the last change wins. Deltas are how a client keeps a
// million-user state current without re-computing it from scratch:
// the caller holds the full state and hands Network.StepFrom just
// each tick's changed coordinates. A StateDelta is a plain slice: do
// not mutate one while a Network call is consuming it; handing
// distinct deltas to concurrent calls is fine.
type StateDelta []OpinionChange

// Network is the long-lived handle of the package: one social graph
// and one concurrent compute engine. Construct it once per graph and
// hang every workload off it — batch distances, anomaly detection over
// a series, metric-space search, and online monitoring of evolving
// states by sparse deltas (StepFrom). The handle tracks no state of
// its own: the caller holds each current state.
//
// All methods are safe for concurrent use: any mix of StepFrom,
// Distance, Matrix and Close may race from many goroutines (everything
// rides the engine's sharded provider and per-worker scratch). Batch
// methods take a context.Context and return ctx.Err() when cancelled
// mid-batch; with an un-cancelled context, results are bit-identical
// to sequential Distance loops (the engine's tests pin this under the
// race detector).
//
// # Lifetime
//
// A Network owns no goroutines between calls; its footprint is the
// engine's ground-distance cache and per-worker scratch arenas. Close
// releases the cache immediately and fails subsequent calls with
// ErrEngineClosed. Anything derived from the handle — the Measure
// returned by Measure, indexes built by Index — shares its engine and
// dies with it.
type Network struct {
	g    *Graph
	opts Options
	eng  *Engine
}

// NewNetwork builds a handle over g. opts configures SND; cfg sizes
// the engine (zero value: one worker per CPU, 128 MiB ground-distance
// cache).
func NewNetwork(g *Graph, opts Options, cfg EngineConfig) *Network {
	return &Network{
		g:    g,
		opts: opts,
		eng:  core.NewEngine(g, opts, cfg),
	}
}

// Graph returns the social graph the handle serves.
func (nw *Network) Graph() *Graph { return nw.g }

// Options returns the SND configuration the handle was built with.
func (nw *Network) Options() Options { return nw.opts }

// Engine returns the underlying batch compute engine, for callers that
// want the lower-level API. It shares the handle's lifetime: after
// Close it fails with ErrEngineClosed.
func (nw *Network) Engine() *Engine { return nw.eng }

// Close releases the engine's ground-distance cache and marks the
// handle closed; further calls fail with an error wrapping
// ErrEngineClosed. In-flight batches run to completion. Close is
// idempotent and always returns nil (it satisfies io.Closer). The
// engine is the single source of truth for closedness: closing via
// Network.Close or Network.Engine().Close closes both surfaces.
func (nw *Network) Close() error {
	return nw.eng.Close()
}

func (nw *Network) closedErr() error {
	if nw.eng.Closed() {
		return fmt.Errorf("snd: %w", ErrEngineClosed)
	}
	return nil
}

// Distance computes SND(a, b) (paper eq. 3), evaluating the four EMD*
// terms concurrently on the handle's engine.
func (nw *Network) Distance(ctx context.Context, a, b State) (Result, error) {
	return nw.eng.Distance(ctx, a, b)
}

// DistanceValue is Distance returning only the distance value.
func (nw *Network) DistanceValue(ctx context.Context, a, b State) (float64, error) {
	res, err := nw.eng.Distance(ctx, a, b)
	if err != nil {
		return 0, err
	}
	return res.SND, nil
}

// Pairs computes SND for every requested (A, B) pair, scheduling all
// 4*len(pairs) terms across the engine's workers. Results align with
// pairs. Cancelling ctx mid-batch returns ctx.Err().
func (nw *Network) Pairs(ctx context.Context, pairs []StatePair) ([]Result, error) {
	return nw.eng.Pairs(ctx, pairs)
}

// DistanceEps is Distance with a certified error budget: the returned
// Result carries an envelope [LB, UB] with LB <= SND <= UB and
// UB - LB <= eps, and the exact distance is guaranteed to lie inside
// the envelope, so |SND - exact| <= eps. eps = 0 is the exact path,
// bit-identical to Distance. A negative or NaN eps fails with an error
// wrapping ErrBadEpsilon. A budgeted result does not depend on what
// the handle computed before.
func (nw *Network) DistanceEps(ctx context.Context, a, b State, eps float64) (Result, error) {
	return nw.eng.DistanceEps(ctx, a, b, eps)
}

// PairsEps is Pairs with a certified per-distance error budget; see
// DistanceEps.
func (nw *Network) PairsEps(ctx context.Context, pairs []StatePair, eps float64) ([]Result, error) {
	return nw.eng.PairsEps(ctx, pairs, eps)
}

// SeriesEps is Series with a certified per-distance error budget,
// returning full Results (value, envelope, terms) rather than bare
// values; see DistanceEps.
func (nw *Network) SeriesEps(ctx context.Context, states []State, eps float64) ([]Result, error) {
	return nw.eng.SeriesEps(ctx, states, eps)
}

// MatrixEps is Matrix with a certified per-distance error budget. It
// additionally reports the largest achieved envelope width over the
// matrix (0 when eps = 0); see DistanceEps.
func (nw *Network) MatrixEps(ctx context.Context, states []State, eps float64) ([][]float64, float64, error) {
	return nw.eng.MatrixEps(ctx, states, eps)
}

// Series computes the SND between every adjacent pair of states:
// out[i] = SND(states[i], states[i+1]). Fewer than two states fail
// with ErrShortSeries.
func (nw *Network) Series(ctx context.Context, states []State) ([]float64, error) {
	return nw.eng.Series(ctx, states)
}

// Matrix computes the symmetric all-pairs distance matrix of states,
// evaluating only i < j and mirroring.
func (nw *Network) Matrix(ctx context.Context, states []State) ([][]float64, error) {
	return nw.eng.Matrix(ctx, states)
}

// Explain computes SND(a, b) and the four terms' transport plans:
// which users' opinion mass covered which changes and at what cost.
func (nw *Network) Explain(ctx context.Context, a, b State) (Result, [4]TermPlan, error) {
	if err := nw.closedErr(); err != nil {
		return Result{}, [4]TermPlan{}, err
	}
	return core.Explain(ctx, nw.g, a, b, nw.opts)
}

// Measure adapts the handle to the Measure interface for the anomaly,
// prediction, and search pipelines. The returned measure runs on the
// handle's engine (batch entry points parallelize) and shares its
// lifetime: it fails once the handle is closed. Like the handle, the
// returned measure is safe for concurrent use.
func (nw *Network) Measure() Measure {
	return predict.SNDMeasure{Engine: nw.eng}
}

// Index builds a metric-space index over states under the handle's SND
// configuration: nearest-neighbor search, classification, and
// k-medoids clustering (the paper's Section 9 applications). The index
// runs its bulk distance work on the handle's engine — but note that
// unlike the handle, the returned StateIndex is not safe for
// concurrent use (it caches pairwise distances without
// synchronization); build one per goroutine or serialize access.
func (nw *Network) Index(states []State) *StateIndex {
	return search.NewIndex(states, nw.Measure())
}

// DetectAnomalies runs the Section 6.2 anomaly pipeline over a state
// series under the handle's SND: adjacent distances (computed in one
// parallel batch), active-count normalization, min-max scaling, and
// spike scores. Rank transitions by Scores descending to flag
// anomalies. Fewer than two states fail with ErrShortSeries.
func (nw *Network) DetectAnomalies(ctx context.Context, states []State) (AnomalyReport, error) {
	dists, err := nw.eng.Series(ctx, states)
	if err != nil {
		return AnomalyReport{}, err
	}
	return anomalyReport("snd", states, dists)
}

// ApplyFrom advances st by a sparse delta: it validates delta against
// st, returns the advanced copy, and reports the lineage to the
// engine's ground-distance provider, so the next evaluation touching
// the new state derives its edge costs and shortest-path trees from
// st's by O(|delta|) patching (the provider's own retention window
// refunds the budget of states that scroll out). st is not mutated and
// must not be mutated afterwards (the provider may hold it as a diff
// base); treat both st and the returned state as immutable snapshots.
// The caller holds the current state: each state's owner serializes
// its own updates, and different states may advance concurrently, so
// a serving layer tracks many named states on one handle. A rejected
// delta returns a nil state and an error wrapping ErrDeltaIndex. Safe
// for concurrent use.
func (nw *Network) ApplyFrom(st State, delta StateDelta) (State, error) {
	if err := nw.closedErr(); err != nil {
		return nil, err
	}
	if err := validateState(nw.g, st); err != nil {
		return nil, err
	}
	for i, ch := range delta {
		if ch.User < 0 || ch.User >= nw.g.N() {
			return nil, fmt.Errorf("snd: delta change %d addresses user %d of %d: %w: %w",
				i, ch.User, nw.g.N(), ErrDeltaIndex, ErrStateSize)
		}
		if !ch.Opinion.Valid() {
			return nil, fmt.Errorf("snd: delta change %d has opinion %d: %w: %w",
				i, ch.Opinion, ErrDeltaIndex, ErrInvalidOpinion)
		}
	}
	next := st.Clone()
	for _, ch := range delta {
		next[ch.User] = ch.Opinion
	}
	// The changed set is computed from the delta (not a full-state
	// diff), so reporting a small tick on a huge state stays
	// O(|delta|); entries that duplicate or revert an opinion drop out
	// here.
	var changed []int32
	seen := make(map[int]bool, len(delta))
	for _, ch := range delta {
		if !seen[ch.User] {
			seen[ch.User] = true
			if next[ch.User] != st[ch.User] {
				changed = append(changed, int32(ch.User))
			}
		}
	}
	if len(changed) > 0 {
		nw.eng.AdvanceRef(st, next, changed)
	}
	return next, nil
}

// StepFrom is ApplyFrom plus the monitoring distance: it advances st
// by delta and returns the new state along with SND(st, next) — feed
// each tick's changes, get the propagation-aware distance the tick
// covered. The evaluation reuses st's materialized edge costs (patched
// over the delta's dirty edges) and repairs retained shortest-path
// trees instead of recomputing them, so its cost scales with |delta|,
// and the distances are bit-identical to a full recompute of the two
// states. The caller keeps the current state:
//
//	cur, res, err = nw.StepFrom(ctx, cur, delta)
//
// When the distance evaluation fails (cancellation, a racing Close)
// the advanced state is still returned alongside the error; the caller
// chooses whether to keep it. A nil returned state means the delta
// itself was rejected and nothing advanced. Safe for concurrent use.
func (nw *Network) StepFrom(ctx context.Context, st State, delta StateDelta) (State, Result, error) {
	next, err := nw.ApplyFrom(st, delta)
	if err != nil {
		return nil, Result{}, err
	}
	res, err := nw.eng.Distance(ctx, st, next)
	if err != nil {
		return next, Result{}, err
	}
	return next, res, nil
}

// validateState checks a full state's shape against the graph, using
// the structured errors.
func validateState(g *Graph, st State) error {
	if len(st) != g.N() {
		return fmt.Errorf("snd: state has %d users, graph has %d: %w", len(st), g.N(), ErrStateSize)
	}
	for i, o := range st {
		if !o.Valid() {
			return fmt.Errorf("snd: user %d has opinion %d: %w", i, o, ErrInvalidOpinion)
		}
	}
	return nil
}

// anomalyReport finishes the anomaly pipeline from raw adjacent
// distances.
func anomalyReport(name string, states []State, dists []float64) (AnomalyReport, error) {
	actives := make([]int, len(states))
	for i, st := range states {
		actives[i] = st.ActiveCount()
	}
	norm, err := anomaly.NormalizeSeries(dists, actives)
	if err != nil {
		return AnomalyReport{}, err
	}
	return AnomalyReport{
		Name:      name,
		Distances: norm,
		Scores:    anomaly.Scores(norm),
	}, nil
}
