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
//     solved by successive shortest paths on small instances whose
//     residual users do not outnumber the bank side (coldSSP) and by
//     cost-scaling otherwise. Taken while the reduced instance has at
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
	// Clusters optionally groups users for bank allocation (nil =
	// one bank per user, the Theorem 4 setting).
	Clusters []int
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

// DefaultOptions returns the configuration used by the paper's
// experiments: agnostic ground costs.
func DefaultOptions() Options {
	return Options{Costs: opinion.DefaultGroundCosts(opinion.DefaultAgnostic)}
}

func (o Options) withDefaults() Options {
	if o.Costs.Model == nil {
		o.Costs = opinion.DefaultGroundCosts(opinion.DefaultAgnostic)
	}
	if o.Gamma <= 0 {
		o.Gamma = 1
	}
	if o.EscapeHops <= 0 {
		o.EscapeHops = 32
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
	// LB <= SND(exact) <= UB, with UB - LB bounded by the error budget
	// of the *Eps call. SND reports the feasible upper end of the
	// envelope, so LB <= SND <= UB always holds. With budget 0 (the
	// exact pipeline) both equal SND.
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
