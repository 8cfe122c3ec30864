package snd

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"snd/internal/anomaly"
	"snd/internal/cluster"
	"snd/internal/core"
	"snd/internal/dataset"
	"snd/internal/distance"
	"snd/internal/dynamics"
	"snd/internal/emd"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/predict"
	"snd/internal/search"
)

// Graph is a directed social network in compressed sparse row form.
// An edge u->v means v follows u: information published by u reaches v.
// A built Graph is immutable and safe for concurrent use by any number
// of goroutines (the engine's transpose view is built once, up front).
type Graph = graph.Digraph

// GraphBuilder accumulates directed edges and freezes them into a
// Graph. Duplicates and self-loops are dropped. A builder is not safe
// for concurrent use; build from one goroutine, then share the frozen
// Graph freely.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n users.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ReadGraph parses the plain edge-list format ("n m" header, then one
// "u v" line per directed edge; '#' comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Decode(r) }

// ScaleFreeConfig parameterizes the scale-free network generator.
type ScaleFreeConfig = graph.ScaleFreeConfig

// ScaleFreeGraph generates a directed scale-free network with a
// tunable in-degree exponent (the synthetic substrate of the paper's
// experiments).
func ScaleFreeGraph(cfg ScaleFreeConfig) *Graph { return graph.ScaleFree(cfg) }

// Opinion is a user's polar opinion: Positive, Negative, or Neutral.
type Opinion = opinion.Opinion

// The three polar opinions.
const (
	Positive = opinion.Positive
	Negative = opinion.Negative
	Neutral  = opinion.Neutral
)

// State is a network state: one opinion per user. A State is a plain
// slice: concurrent reads are safe, but callers must not mutate a
// state while a computation that was handed it is in flight (engine
// methods only read their arguments, and Network snapshots tracked
// states defensively).
type State = opinion.State

// NewState returns an all-neutral state for n users.
func NewState(n int) State { return opinion.NewState(n) }

// ReadState parses the state format written by State.Encode.
func ReadState(r io.Reader) (State, error) { return opinion.DecodeState(r) }

// Options configures SND: ground-cost model, bank-bin distance, bank
// clustering, and escape threshold. Every optimization of the pipeline
// is exact and always on; an error budget is an argument of the *Eps
// methods, not an option.
// Options is a value: copies are independent, and an Engine or Network
// snapshots the options it was constructed with, so mutating the
// caller's copy afterwards has no effect and no concurrency hazard.
type Options = core.Options

// Result reports an SND evaluation: the distance, the four EMD* terms
// of eq. 3, n-delta, and computation statistics. Results are plain
// values owned by the caller.
type Result = core.Result

// DefaultOptions returns the configuration used by the paper's
// experiments.
func DefaultOptions() Options { return core.DefaultOptions() }

// ComputeEngine labels the strategy that produced each term of a
// Result (Result.EnginesUsed). The engine chooses it from the input.
type ComputeEngine = core.ComputeEngine

// The strategy labels: no route taken (the term was decided without a
// solve), the Theorem 4 bipartite route, and the route through the
// graph itself.
const (
	EngineAuto      = core.EngineAuto
	EngineBipartite = core.EngineBipartite
	EngineNetwork   = core.EngineNetwork
)

// Engine is a reusable, concurrency-safe SND compute layer over one
// fixed graph: it evaluates the four EMD* terms of every distance
// concurrently across a worker pool, reuses per-worker scratch memory,
// and shares a sharded ground-distance provider across batch calls
// (entries are spread over independent lock domains by reference-state
// fingerprint, so workers on unrelated states never contend).
// Construct one Engine per graph and reuse it for all
// Distance/Pairs/Matrix/Series traffic from any number of goroutines;
// results are bit-identical to sequential Distance loops for any
// worker count and any interleaving. Batch methods take a context and
// return ctx.Err() on cancellation; Close releases the caches (most
// callers hold a Network, which wraps an Engine and manages its
// lifetime).
type Engine = core.Engine

// EngineConfig sizes an Engine: worker count (0 = GOMAXPROCS),
// ground-distance cache budget in bytes (0 = 128 MiB, negative =
// disabled; sharded across lock domains internally), and warm-start
// basis retention budget (0 = 64 MiB, negative = disabled; one ring
// shared by all workers). A config is a plain value read once at
// construction.
type EngineConfig = core.EngineConfig

// EngineStats is a snapshot of an Engine's cumulative phase timings
// (SSSP fan-out, transportation solves, bound computation),
// warm-start/screening counters, and the ground provider's merged
// retention gauges; see Engine.Stats. Counters only grow — subtract
// two snapshots to isolate one batch. A snapshot is a plain value
// owned by the caller; Engine.Stats itself is safe to call
// concurrently with in-flight batches.
type EngineStats = core.EngineStats

// StatePair is one (A, B) input of Engine.Pairs.
type StatePair = core.StatePair

// TransportMove is one user-level shipment of an SND transport plan.
type TransportMove = core.Move

// TermPlan is one eq. 3 term's transport plan.
type TermPlan = core.TermPlan

// Measure is a distance between two network states; SND and every
// baseline of the paper's evaluation satisfy it. Every measure this
// package returns is safe for concurrent Distance calls: the SND
// measure is backed by a concurrency-safe Engine, and the baseline
// measures are stateless.
type Measure = distance.Measure

// HammingMeasure counts coordinate-wise opinion disagreements. The
// measure is stateless and safe for concurrent use.
func HammingMeasure(n int) Measure { return distance.Hamming{N: n} }

// L1Measure is the l1 distance over the +1/0/-1 opinion encoding.
func L1Measure(n int) Measure { return distance.Lp{N: n, P: 1} }

// QuadFormMeasure is the Laplacian quadratic-form distance.
func QuadFormMeasure(g *Graph) Measure { return distance.QuadForm{G: g} }

// WalkDistMeasure compares per-user contention vectors.
func WalkDistMeasure(g *Graph) Measure { return distance.WalkDist{G: g} }

// BFSClusterLabels partitions the graph's users into at most k
// clusters of near-equal size by multi-seed breadth-first growth, for
// use as Options.Clusters (coarse bank-bin allocation, Fig. 4). Coarse
// banks aggregate a cluster's mass, which makes the mass-mismatch
// penalty robust on weakly-connected digraphs where per-user banks at
// dead-end users would pay the saturated escape cost.
func BFSClusterLabels(g *Graph, k int) []int { return cluster.BFSPartition(g, k) }

// CommunityLabels detects communities by label propagation, for use as
// Options.Clusters or for community-level analysis.
func CommunityLabels(g *Graph, maxIter int, seed int64) []int {
	return cluster.LabelPropagation(g, maxIter, seed)
}

// EMDStarConfig parameterizes EMDStar.
type EMDStarConfig = emd.StarConfig

// EMDStar computes the paper's generalized Earth Mover's Distance
// (eq. 4) between two histograms over an arbitrary ground distance.
func EMDStar(p, q []float64, dist func(i, j int) float64, cfg EMDStarConfig) (float64, error) {
	return emd.Star(p, q, dist, cfg)
}

// EMD computes the original Earth Mover's Distance (eq. 1).
func EMD(p, q []float64, dist func(i, j int) float64) (float64, error) {
	return emd.EMD(p, q, dist)
}

// AnomalyReport is the outcome of the Section 6.2 anomaly pipeline for
// one distance measure over a state series.
type AnomalyReport struct {
	// Name is the measure's name.
	Name string
	// Distances are the per-transition distances, normalized by
	// active-user counts and scaled to [0, 1].
	Distances []float64
	// Scores are the per-transition anomaly scores S_t.
	Scores []float64
}

// DetectAnomalies runs the anomaly pipeline for measure m over a state
// series: adjacent distances, active-count normalization, min-max
// scaling, and spike scores. Rank transitions by Scores descending to
// flag anomalies. Measures that support batch evaluation (the SND
// measure) compute all transitions in parallel. Fewer than two states
// fail with ErrShortSeries — there is no transition to score. For the
// SND pipeline with cancellation, use Network.DetectAnomalies; this
// free function remains the entry point for the baseline measures.
func DetectAnomalies(states []State, m Measure) (AnomalyReport, error) {
	if len(states) < 2 {
		return AnomalyReport{}, fmt.Errorf("snd: anomaly pipeline over %d states: %w", len(states), ErrShortSeries)
	}
	var dists []float64
	if sm, ok := m.(distance.SeriesDistancer); ok {
		var err error
		dists, err = sm.Series(context.Background(), states)
		if err != nil {
			return AnomalyReport{}, err
		}
	} else {
		dists = make([]float64, 0, len(states)-1)
		for i := 0; i+1 < len(states); i++ {
			d, err := m.Distance(states[i], states[i+1])
			if err != nil {
				return AnomalyReport{}, err
			}
			dists = append(dists, d)
		}
	}
	return anomalyReport(m.Name(), states, dists)
}

// ROCPoint is one point of a receiver operating characteristic curve.
type ROCPoint = anomaly.ROCPoint

// ROC sweeps a decision threshold over anomaly scores against ground-
// truth labels.
func ROC(scores []float64, truth []bool) ([]ROCPoint, error) {
	return anomaly.ROC(scores, truth)
}

// AUC integrates an ROC curve.
func AUC(curve []ROCPoint) float64 { return anomaly.AUC(curve) }

// TPRAtFPR returns the best true-positive rate at false-positive rate
// <= maxFPR.
func TPRAtFPR(curve []ROCPoint, maxFPR float64) float64 {
	return anomaly.TPRAtFPR(curve, maxFPR)
}

// Predictor predicts the opinions of target users in an incomplete
// current state from recent history (Section 6.3).
type Predictor = predict.Predictor

// DistanceBasedPredictor is the paper's randomized-search prediction
// method, parameterized by any Measure (use Network.Measure for the
// paper's method).
func DistanceBasedPredictor(m Measure, assignments int, seed int64) Predictor {
	return predict.DistanceBased{Measure: m, Assignments: assignments, Seed: seed}
}

// NhoodVotingPredictor predicts by probabilistic voting over active
// in-neighbors.
func NhoodVotingPredictor(g *Graph, seed int64) Predictor {
	return predict.NhoodVoting{G: g, Seed: seed}
}

// CommunityLPPredictor predicts by label-propagation community
// majority (Conover et al.).
func CommunityLPPredictor(g *Graph, seed int64) Predictor {
	return predict.CommunityLP{G: g, Seed: seed}
}

// SelectPredictionTargets samples k active users with balanced
// opinions, as the paper's prediction experiments do.
func SelectPredictionTargets(st State, k int, rng *rand.Rand) []int {
	return predict.SelectTargets(st, k, rng)
}

// BlankTargets returns a copy of st with the targets' opinions hidden.
func BlankTargets(st State, targets []int) State { return predict.Blank(st, targets) }

// PredictionAccuracy scores predictions against the true state.
func PredictionAccuracy(truth State, targets []int, predicted []Opinion) (float64, error) {
	return predict.Accuracy(truth, targets, predicted)
}

// Evolution is the Section 6.1 synthetic opinion process. It owns a
// private random stream, so it is not safe for concurrent use.
type Evolution = dynamics.Evolution

// EvolutionParams is one tick's (Pnbr, Pext) activation probabilities.
type EvolutionParams = dynamics.StepParams

// NewEvolution seeds the synthetic process with balanced random
// adopters.
func NewEvolution(g *Graph, initialAdopters int, seed int64) *Evolution {
	return dynamics.NewEvolution(g, initialAdopters, seed)
}

// ICCStep runs one round of the competitive Independent Cascade model
// over the current state (Section 6.4's "normal" transition), returning
// the next state and the number of new activations.
func ICCStep(g *Graph, st State, edgeProb float64, rng *rand.Rand) (State, int) {
	return dynamics.ICCStep(g, st, edgeProb, rng)
}

// RandomActivationStep activates count random neutral users with random
// opinions (Section 6.4's structure-blind "anomalous" transition).
func RandomActivationStep(g *Graph, st State, count int, rng *rand.Rand) (State, int) {
	return dynamics.RandomStep(g, st, count, rng)
}

// StateIndex is a collection of network states searchable in the
// metric space a Measure induces — the paper's Section 9 application:
// nearest-neighbor search, classification, and clustering of states.
// An index memoizes pair distances in an unsynchronized cache, so it
// is NOT safe for concurrent use: query it from one goroutine at a
// time (the underlying Measure may still be shared across indexes).
type StateIndex = search.Index

// StateNeighbor is one nearest-neighbor search result.
type StateNeighbor = search.Neighbor

// StateClustering is a k-medoids clustering of indexed states.
type StateClustering = search.Clustering

// NewStateIndex indexes states under measure m — the entry point for
// the baseline measures. For the paper's SND metric space, use
// Network.Index, which runs the index's bulk work on the handle's
// engine.
func NewStateIndex(states []State, m Measure) *StateIndex {
	return search.NewIndex(states, m)
}

// TwitterConfig parameterizes the synthetic Twitter-like corpus.
type TwitterConfig = dataset.Config

// TwitterEvent is one ground-truth event of the corpus timeline.
type TwitterEvent = dataset.Event

// TwitterDataset is the generated corpus: graph, quarterly states,
// events, interest series.
type TwitterDataset = dataset.Dataset

// TwitterCorpus generates the synthetic stand-in for the paper's
// Twitter data with the default 2008-2011 political event timeline.
func TwitterCorpus(cfg TwitterConfig) *TwitterDataset { return dataset.Twitter(cfg) }
