// Package core implements Social Network Distance (SND), the paper's
// primary contribution: a distance between two states of a social
// network holding polar opinions, defined (eq. 3) as
//
//	SND(G1,G2) = 1/2 * [ EMD*(G1+, G2+, D(G1,+)) + EMD*(G1-, G2-, D(G1,-))
//	                   + EMD*(G2+, G1+, D(G2,+)) + EMD*(G2-, G1-, D(G2,-)) ]
//
// where Gi+/Gi- are the positive/negative opinion histograms and
// D(Gi,op) is the shortest-path ground distance over the opinion-
// dependent integer edge costs of eq. 2 (package opinion).
//
// Every term runs one reduction pipeline: Lemmas 1 and 2 reduce the
// transportation problem to the n-delta users whose opinion changed,
// plus bank bins on the lighter histogram's active users. The reduced
// instance then takes one of two exact routes, chosen from the input
// alone (computeTerm):
//
//   - Bipartite — the Theorem 4 pipeline: one single-source shortest
//     path run per residual supplier (or per residual consumer, on the
//     reversed graph, when the banks sit on the supplier side), then
//     an integer min-cost flow on the reduced bipartite instance,
//     solved by successive shortest paths on small instances and by
//     cost-scaling beyond. Taken while the reduced instance has at
//     most max(n/4, 1000) nodes and 4e6 arcs.
//
//   - Network — routes opinion mass through the social network
//     itself: graph edges become flow arcs with the eq. 2 costs and
//     bank bins become satellite nodes, solved by cost-scaling. The
//     optimal flow cost equals the bipartite optimum by path
//     decomposition, with no shortest-path precomputation and no
//     quadratic cost materialization, so memory stays linear in the
//     graph at large n-delta.
//
// The oracle — full Johnson all-pairs ground distance plus the dense
// EMD* of package emd — lives in the package tests, where it
// cross-validates both routes and both solvers. Direct is the
// un-reduced simplex baseline of Fig. 11.
//
// Both routes compute the oracle's value exactly (tests pin this) under
// the default singleton bank clustering. Under coarse clusterings they
// charge bank transport at user grain where eq. 4 charges cluster
// grain, so their value differs from the oracle's, in either direction
// (docs/ARCHITECTURE.md, "Design notes"); the two routes still agree.
package core

import (
	"fmt"

	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/pqueue"
)

// ComputeEngine labels the strategy that produced a term
// (Result.EnginesUsed). It is a report, not a setting: the routes are
// chosen from the input.
type ComputeEngine int

const (
	// EngineAuto labels a term that took no route: its reduced
	// instance is empty, or its pair was screened as identical.
	EngineAuto ComputeEngine = iota
	// EngineBipartite is the Theorem 4 SSSP + reduced-flow route.
	EngineBipartite
	// EngineNetwork is the route through the graph itself.
	EngineNetwork
	// EngineDense is the all-pairs + dense EMD* baseline (Direct).
	EngineDense
)

// String names the engine.
func (e ComputeEngine) String() string {
	switch e {
	case EngineBipartite:
		return "bipartite"
	case EngineNetwork:
		return "network"
	case EngineDense:
		return "dense"
	default:
		return "auto"
	}
}

// Options configures SND.
type Options struct {
	// Costs supplies the eq. 2 ground-cost model. The zero value is
	// replaced by DefaultGroundCosts(DefaultAgnostic).
	Costs opinion.GroundCosts
	// Gamma is the integer bank-bin ground distance (the gamma of
	// eq. 4 under singleton clusters). 0 selects 1 — the friendly-edge
	// cost scale, which follows the paper's guidance that gamma be of
	// the order of the ground distances local to the bank's cluster
	// and maximizes the spatial sensitivity of the mismatch penalty.
	// Larger values weight pure activation-volume change more heavily
	// relative to placement.
	Gamma int64
	// Heap selects the Dijkstra priority queue for the SSSP runs.
	// pqueue.KindAuto (HeapAuto) resolves against the cost model's
	// MaxCost when the options are applied: Dial's bucket queue while
	// the edge-cost bound buckets cheaply, the radix heap beyond.
	Heap pqueue.Kind
	// NoGoalPrune disables the goal-pruned SSSP fan-out of the
	// bipartite pipeline: every per-supplier run settles the whole
	// graph (and the ground provider retains full rows for all of
	// them), as the engine did before pruning existed. Distances are
	// bit-identical either way — pruning is exact on the queried
	// columns — so this exists for benchmarking (the sndbench sssp
	// experiment measures pruned against unpruned) and as a validation
	// lever for the exactness property tests.
	NoGoalPrune bool
	// NoWarmStart disables warm-started transportation solves in the
	// bipartite pipeline: every term solve starts from zero potentials
	// and no flow, and no solved bases are retained in the worker
	// arenas — exactly the pre-warm-start pipeline. Distances are
	// bit-identical either way (the transportation optimum is unique),
	// so this exists for benchmarking (the sndbench flow experiment
	// measures warm against cold) and as a validation lever for the
	// exactness property tests.
	NoWarmStart bool
	// NoBounds disables lower-bound screening everywhere: the term
	// pipeline always runs its flow solve (no LB == UB gate), Pairs and
	// Matrix never decide identical-state pairs up front, and
	// Engine.LowerBounds returns zeros, which makes the bound-first
	// nearest-neighbor scan (search.Index.NearestNeighbors) degrade to
	// exhaustive evaluation. Anomaly detection inherits the gates
	// through its Series batch (stagnant transitions decide as
	// identical pairs; decided terms skip their solves) rather than
	// through a dedicated prefilter. Distances are bit-identical either
	// way; this pins the unscreened pipeline for benchmarking and
	// tests.
	NoBounds bool
	// Clusters optionally groups users for bank allocation (nil =
	// one bank per user, the Theorem 4 setting).
	Clusters []int
	// Epsilon is the default certified error budget for the
	// approximation tier, in SND units: every distance an engine batch
	// returns is accompanied by an envelope [LB, UB] with
	// UB - LB <= Epsilon that provably contains the exact value (the
	// reported SND is the envelope's feasible-plan upper end, so
	// |SND - exact| <= Epsilon). 0 — the default — pins the exact
	// pipeline: every value is bit-identical to an engine with no
	// approximation code at all, and LB == UB == SND. Positive budgets
	// let terms be decided by coarse cluster-representative bounds, by
	// the relaxed LB/UB row gate, or by the entropic (Sinkhorn) solver's
	// certified envelope, skipping SSSP runs and flow solves; a term
	// whose envelope cannot be tightened within budget falls back to the
	// exact solve, so the contract holds unconditionally. The per-call
	// *Eps engine methods override this default. NoBounds disables the
	// approximation gates along with the exact ones, forcing exact
	// solves regardless of Epsilon.
	Epsilon float64
	// EscapeHops thresholds the ground distance: transport between
	// users with no directed path (or one costing more) is charged
	// EscapeHops maximally-expensive virtual hops (EscapeHops * U).
	// This is the finite-cost reading of the paper's epsilon
	// probabilities for impossible events — two states are never at
	// distance infinity — with the thresholded-ground-distance
	// semantics of the EMD literature the paper cites. The threshold
	// keeps a single weakly-connected user from dominating the
	// distance on directed follower graphs. 0 selects 32; set it to
	// n+1 (or math.MaxInt32) for the untruncated shortest-path metric.
	EscapeHops int
}

// HeapAuto selects the Dijkstra queue by the cost model's edge-cost
// bound: Dial's bucket queue while the bound is small (the Assumption 2
// setting), the radix heap beyond (see Options.Heap).
const HeapAuto = pqueue.KindAuto

// DefaultOptions returns the configuration used by the paper's
// experiments: agnostic ground costs, automatic queue selection (Dial's
// bucket queue under Assumption 2's small cost bound).
func DefaultOptions() Options {
	return Options{
		Costs: opinion.DefaultGroundCosts(opinion.DefaultAgnostic),
		Heap:  HeapAuto,
	}
}

func (o Options) withDefaults() Options {
	if o.Costs.Model == nil {
		o.Costs = opinion.DefaultGroundCosts(opinion.DefaultAgnostic)
	}
	// Resolve HeapAuto once, here, so every downstream consumer — the
	// SSSP fan-out, tree repair, the SSP flow solver — sees a concrete
	// queue kind chosen against the model's true cost bound.
	o.Heap = pqueue.Resolve(o.Heap, o.Costs.MaxCost())
	if o.Gamma <= 0 {
		o.Gamma = 1
	}
	if o.EscapeHops <= 0 {
		o.EscapeHops = 32
	}
	if !(o.Epsilon > 0) {
		o.Epsilon = 0 // negatives and NaN mean "exact"
	}
	return o
}

func (o Options) validate(g *graph.Digraph, a, b opinion.State) error {
	if len(a) != g.N() || len(b) != g.N() {
		return fmt.Errorf("core: states have %d/%d users, graph has %d: %w", len(a), len(b), g.N(), ErrStateSize)
	}
	for i, s := range a {
		if !s.Valid() {
			return fmt.Errorf("core: state A user %d has opinion %d: %w", i, s, ErrInvalidOpinion)
		}
	}
	for i, s := range b {
		if !s.Valid() {
			return fmt.Errorf("core: state B user %d has opinion %d: %w", i, s, ErrInvalidOpinion)
		}
	}
	if o.Clusters != nil && len(o.Clusters) != g.N() {
		return fmt.Errorf("core: %d cluster labels for %d users: %w", len(o.Clusters), g.N(), ErrClusterLabels)
	}
	return nil
}

// Result reports an SND evaluation.
type Result struct {
	// SND is the distance value (eq. 3).
	SND float64
	// Terms holds the four EMD* values in eq. 3 order:
	// (A+,B+,D(A,+)), (A-,B-,D(A,-)), (B+,A+,D(B,+)), (B-,A-,D(B,-)).
	Terms [4]float64
	// NDelta is the number of users whose opinion differs between the
	// two states.
	NDelta int
	// LB and UB are the certified envelope around the exact distance:
	// LB <= SND(exact) <= UB, with UB - LB bounded by the requested
	// Epsilon. SND reports the feasible upper end of the envelope, so
	// LB <= SND <= UB always holds. With Epsilon == 0 (the exact
	// pipeline) both equal SND.
	LB, UB float64
	// SSSPRuns counts the single-source shortest-path computations the
	// evaluation charges. Engine batches may serve some of them from
	// the ground-distance cache, but the charge is reported either way
	// so results stay identical across engines, worker counts, and
	// cache configurations.
	SSSPRuns int
	// EnginesUsed records the engine that produced each term.
	EnginesUsed [4]ComputeEngine
}
