// Package predict implements the user-opinion prediction methods of the
// paper's Section 6.3.
//
// The distance-based method assumes the network evolved "smoothly":
// distances between adjacent past states extrapolate to an estimate d*
// of the distance from the latest state to the (unknown) complete
// current state. Candidate opinion assignments for the target users are
// sampled uniformly at random, and the assignment whose induced
// distance lands closest to d* wins. Plugging SND into this scheme is
// the paper's method; plugging hamming/quad-form/walk-dist gives the
// distance-based baselines.
//
// Two non-distance baselines are included: nhood-voting (probabilistic
// voting over active in-neighbors) and community-lp (label-propagation
// communities vote; Conover et al.).
package predict

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"snd/internal/cluster"
	"snd/internal/core"
	"snd/internal/distance"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/stats"
)

// SNDMeasure adapts SND to distance.Measure and its batch fast paths
// (distance.SeriesDistancer, distance.PairDistancer). Every call runs
// on Engine's worker pool (with scratch reuse and ground-distance
// caching), and the batch entry points Series and DistancePairs
// parallelize across all requested pairs. Engine is required and
// borrowed: its owner (a snd.Network) releases it.
type SNDMeasure struct {
	Engine *core.Engine
}

// Name implements distance.Measure.
func (SNDMeasure) Name() string { return "snd" }

// Distance implements distance.Measure.
func (m SNDMeasure) Distance(a, b opinion.State) (float64, error) {
	res, err := m.Engine.Distance(context.Background(), a, b)
	if err != nil {
		return 0, err
	}
	return res.SND, nil
}

// Series returns the distances between every adjacent pair of states.
func (m SNDMeasure) Series(ctx context.Context, states []opinion.State) ([]float64, error) {
	return m.Engine.Series(ctx, states)
}

// DistancePairs evaluates every requested (A, B) pair, scheduling all
// of them across the engine's workers.
func (m SNDMeasure) DistancePairs(ctx context.Context, pairs [][2]opinion.State) ([]float64, error) {
	results, err := m.Engine.Pairs(ctx, statePairs(pairs))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.SND
	}
	return out, nil
}

// DistanceLowerBounds returns admissible lower bounds on every pair's
// SND — bounds[i] <= the exact distance, always — computed without any
// shortest-path or flow work (the engine's mass-mismatch term plus
// cached-row minima). Bound-first consumers (the search index's
// nearest-neighbor scan) use them to skip exact evaluations.
func (m SNDMeasure) DistanceLowerBounds(ctx context.Context, pairs [][2]opinion.State) ([]float64, error) {
	return m.Engine.LowerBounds(ctx, statePairs(pairs))
}

func statePairs(pairs [][2]opinion.State) []core.StatePair {
	sp := make([]core.StatePair, len(pairs))
	for i, p := range pairs {
		sp[i] = core.StatePair{A: p[0], B: p[1]}
	}
	return sp
}

// Predictor predicts the opinions of target users in the current
// (incomplete) network state. past holds the observed recent states,
// oldest first; current has the targets' opinions blanked to Neutral.
// The returned slice is aligned with targets. Cancelling ctx aborts the
// prediction with ctx.Err(); how promptly depends on the method (the
// distance-based search checks between candidate batches and inside the
// engine's term scheduling).
type Predictor interface {
	Name() string
	Predict(ctx context.Context, past []opinion.State, current opinion.State, targets []int) ([]opinion.Opinion, error)
}

// DistanceBased is the Section 6.3 randomized-search predictor.
type DistanceBased struct {
	Measure distance.Measure
	// Assignments is the number of random candidate assignments
	// sampled (the paper uses 100).
	Assignments int
	// Seed seeds the randomized search: equal seeds sample equal
	// candidate assignments.
	Seed int64
}

// Name implements Predictor.
func (d DistanceBased) Name() string { return d.Measure.Name() }

// Predict implements Predictor.
func (d DistanceBased) Predict(ctx context.Context, past []opinion.State, current opinion.State, targets []int) ([]opinion.Opinion, error) {
	if len(past) < 2 {
		return nil, fmt.Errorf("predict: distance-based method needs >= 2 past states, have %d: %w", len(past), core.ErrShortSeries)
	}
	if d.Assignments < 1 {
		d.Assignments = 100
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(d.Seed))
	// Distances between adjacent past states, extrapolated one step.
	var dists []float64
	var err error
	if sm, ok := d.Measure.(distance.SeriesDistancer); ok {
		dists, err = sm.Series(ctx, past)
	} else {
		dists = make([]float64, 0, len(past)-1)
		for i := 0; i+1 < len(past); i++ {
			v, verr := d.Measure.Distance(past[i], past[i+1])
			if verr != nil {
				return nil, verr
			}
			dists = append(dists, v)
		}
	}
	if err != nil {
		return nil, err
	}
	dStar, err := stats.ExtrapolateNext(dists)
	if err != nil {
		return nil, err
	}
	latest := past[len(past)-1]
	// Candidate assignments are generated in the same rng order the
	// sequential search used and evaluated chunk by chunk, so an
	// engine-backed measure parallelizes within each chunk while peak
	// memory stays at chunkSize states rather than Assignments states.
	const chunkSize = 64
	pd, batched := d.Measure.(distance.PairDistancer)
	best := make([]opinion.Opinion, len(targets))
	bestGap := math.Inf(1)
	candidates := make([]opinion.State, 0, chunkSize)
	pairs := make([][2]opinion.State, 0, chunkSize)
	for done := 0; done < d.Assignments; done += len(candidates) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		candidates = candidates[:0]
		pairs = pairs[:0]
		for trial := done; trial < d.Assignments && trial < done+chunkSize; trial++ {
			c := current.Clone()
			for _, u := range targets {
				if rng.Intn(2) == 0 {
					c[u] = opinion.Positive
				} else {
					c[u] = opinion.Negative
				}
			}
			candidates = append(candidates, c)
			pairs = append(pairs, [2]opinion.State{latest, c})
		}
		var vals []float64
		if batched {
			vals, err = pd.DistancePairs(ctx, pairs)
		} else {
			vals = make([]float64, len(pairs))
			for i, p := range pairs {
				vals[i], err = d.Measure.Distance(p[0], p[1])
				if err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			if gap := math.Abs(v - dStar); gap < bestGap {
				bestGap = gap
				for i, u := range targets {
					best[i] = candidates[k][u]
				}
			}
		}
	}
	return best, nil
}

// NhoodVoting predicts each target's opinion by probabilistic voting
// over its active in-neighbors in the current state, falling back to a
// uniformly random opinion when it has none.
type NhoodVoting struct {
	G    *graph.Digraph
	Seed int64
}

// Name implements Predictor.
func (NhoodVoting) Name() string { return "nhood-voting" }

// Predict implements Predictor. The voting pass is a single cheap
// sweep; ctx is only checked on entry.
func (n NhoodVoting) Predict(ctx context.Context, past []opinion.State, current opinion.State, targets []int) ([]opinion.Opinion, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(n.Seed))
	rev := n.G.Reverse()
	out := make([]opinion.Opinion, len(targets))
	for i, v := range targets {
		pos, neg := 0, 0
		for _, u := range rev.Out(v) {
			switch current[u] {
			case opinion.Positive:
				pos++
			case opinion.Negative:
				neg++
			}
		}
		switch {
		case pos+neg == 0:
			out[i] = randomOpinion(rng)
		case rng.Intn(pos+neg) < pos:
			out[i] = opinion.Positive
		default:
			out[i] = opinion.Negative
		}
	}
	return out, nil
}

// CommunityLP predicts each target's opinion as the majority opinion of
// the active users in its label-propagation community (Conover et al.,
// "Predicting the political alignment of Twitter users").
type CommunityLP struct {
	G *graph.Digraph
	// MaxIter bounds label-propagation sweeps (default 20).
	MaxIter int
	Seed    int64
}

// Name implements Predictor.
func (CommunityLP) Name() string { return "community-lp" }

// Predict implements Predictor. Label propagation is bounded by
// MaxIter sweeps; ctx is only checked on entry.
func (c CommunityLP) Predict(ctx context.Context, past []opinion.State, current opinion.State, targets []int) ([]opinion.Opinion, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	maxIter := c.MaxIter
	if maxIter < 1 {
		maxIter = 20
	}
	rng := rand.New(rand.NewSource(c.Seed))
	labels := cluster.LabelPropagation(c.G, maxIter, c.Seed)
	nc := cluster.Count(labels)
	pos := make([]int, nc)
	neg := make([]int, nc)
	isTarget := make(map[int]bool, len(targets))
	for _, u := range targets {
		isTarget[u] = true
	}
	for u, o := range current {
		if isTarget[u] {
			continue
		}
		switch o {
		case opinion.Positive:
			pos[labels[u]]++
		case opinion.Negative:
			neg[labels[u]]++
		}
	}
	out := make([]opinion.Opinion, len(targets))
	for i, u := range targets {
		c := labels[u]
		switch {
		case pos[c] > neg[c]:
			out[i] = opinion.Positive
		case neg[c] > pos[c]:
			out[i] = opinion.Negative
		default:
			out[i] = randomOpinion(rng)
		}
	}
	return out, nil
}

func randomOpinion(rng *rand.Rand) opinion.Opinion {
	if rng.Intn(2) == 0 {
		return opinion.Positive
	}
	return opinion.Negative
}

// Accuracy returns the fraction of targets whose predicted opinion
// matches truth.
func Accuracy(truth opinion.State, targets []int, predicted []opinion.Opinion) (float64, error) {
	if len(targets) != len(predicted) {
		return 0, fmt.Errorf("predict: %d predictions for %d targets", len(predicted), len(targets))
	}
	if len(targets) == 0 {
		return 0, fmt.Errorf("predict: no targets")
	}
	correct := 0
	for i, u := range targets {
		if truth[u] == predicted[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(targets)), nil
}

// SelectTargets uniformly samples k active users of st, balancing
// positive and negative users as the paper's experiments do. It returns
// fewer than k when the state lacks active users.
func SelectTargets(st opinion.State, k int, rng *rand.Rand) []int {
	var pos, neg []int
	for u, o := range st {
		switch o {
		case opinion.Positive:
			pos = append(pos, u)
		case opinion.Negative:
			neg = append(neg, u)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	half := k / 2
	if half > len(pos) {
		half = len(pos)
	}
	rest := k - half
	if rest > len(neg) {
		rest = len(neg)
	}
	out := append(append([]int{}, pos[:half]...), neg[:rest]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Blank returns a copy of st with the targets' opinions set to Neutral
// (the "incomplete current state" of the prediction setting).
func Blank(st opinion.State, targets []int) opinion.State {
	out := st.Clone()
	for _, u := range targets {
		out[u] = opinion.Neutral
	}
	return out
}
