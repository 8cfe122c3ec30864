// Package search provides metric-space applications of SND — the
// paper's Section 9 future-work items: nearest-neighbor search over
// network states, k-medoids clustering of states, and classification
// by nearest labelled state.
//
// All routines work with any state distance (the Measure interface of
// package predict); plugging SND in gives the paper's intended use.
// Distances are cached per (i, j) pair. Nothing here assumes the
// triangle inequality, which SND satisfies only in some configurations
// (docs/ARCHITECTURE.md, "Design notes"): NearestNeighbors screens
// candidates with admissible per-pair lower bounds instead.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"snd/internal/opinion"
)

// Distance is any distance between two network states.
type Distance interface {
	Distance(a, b opinion.State) (float64, error)
	Name() string
}

// pairDistancer is the optional batch fast path: measures that can
// evaluate many pairs at once (the engine-backed SND measure) satisfy
// it, and the index routes its bulk workloads through it.
type pairDistancer interface {
	DistancePairs(ctx context.Context, pairs [][2]opinion.State) ([]float64, error)
}

// pairBounder is the optional screening fast path: measures that can
// cheaply lower-bound many pairs at once (the engine-backed SND
// measure, via its mass-mismatch and cached-row bounds) satisfy it.
// A nil bounds slice (with nil error) means "no bounds available" —
// the index then evaluates exhaustively. Bounds must be admissible:
// bounds[i] <= the exact distance of pairs[i], always; the index
// trusts this when it skips exact evaluations.
type pairBounder interface {
	DistanceLowerBounds(ctx context.Context, pairs [][2]opinion.State) ([]float64, error)
}

// Index is a collection of network states searchable by distance.
type Index struct {
	states []opinion.State
	dist   Distance
	// The pair cache is a dense upper-triangular array: pair (i, j)
	// with i < j lives at triIdx(i, j), with a validity bit aside. It
	// replaces a map[[2]int]float64 whose per-lookup hashing dominated
	// the k-medoids and classification assignment loops; it is
	// allocated lazily on first cached lookup, so index uses that
	// never touch pair distances (NearestNeighbors) pay nothing.
	cache []float64
	valid []bool
}

// NewIndex builds an index over the given states (which are not
// copied).
func NewIndex(states []opinion.State, dist Distance) *Index {
	return &Index{states: states, dist: dist}
}

// Len returns the number of indexed states.
func (ix *Index) Len() int { return len(ix.states) }

// State returns the i-th indexed state.
func (ix *Index) State(i int) opinion.State { return ix.states[i] }

// triIdx maps pair (i, j), i < j, to its upper-triangular slot.
func (ix *Index) triIdx(i, j int) int {
	n := len(ix.states)
	return i*(2*n-i-1)/2 + (j - i - 1)
}

func (ix *Index) ensureCache() {
	if ix.cache == nil {
		n := len(ix.states)
		ix.cache = make([]float64, n*(n-1)/2)
		ix.valid = make([]bool, len(ix.cache))
	}
}

// between returns the (cached) distance between indexed states i and j.
func (ix *Index) between(i, j int) (float64, error) {
	if i == j {
		return 0, nil
	}
	if i > j {
		i, j = j, i
	}
	ix.ensureCache()
	k := ix.triIdx(i, j)
	if ix.valid[k] {
		return ix.cache[k], nil
	}
	d, err := ix.dist.Distance(ix.states[i], ix.states[j])
	if err != nil {
		return 0, err
	}
	ix.cache[k] = d
	ix.valid[k] = true
	return d, nil
}

// prefill evaluates every uncached i < j pair in one batch when the
// measure is batch-capable, feeding the dense pair cache that the
// k-medoids and classification loops then hit without ever calling the
// measure again. A no-op for scalar measures.
func (ix *Index) prefill(ctx context.Context) error {
	pd, ok := ix.dist.(pairDistancer)
	if !ok || len(ix.states) < 2 {
		return nil
	}
	ix.ensureCache()
	var pairs [][2]opinion.State
	var keys []int
	n := len(ix.states)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k := ix.triIdx(i, j); !ix.valid[k] {
				pairs = append(pairs, [2]opinion.State{ix.states[i], ix.states[j]})
				keys = append(keys, k)
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	ds, err := pd.DistancePairs(ctx, pairs)
	if err != nil {
		return err
	}
	for k, d := range ds {
		ix.cache[keys[k]] = d
		ix.valid[keys[k]] = true
	}
	return nil
}

// Neighbor is one search result.
type Neighbor struct {
	// Index identifies the state within the index.
	Index int
	// Dist is its distance from the query.
	Dist float64
}

// NearestNeighbors returns the k indexed states closest to the query,
// ascending by distance. Cancelling ctx aborts the scan with ctx.Err().
//
// With a bound-capable measure (the engine-backed SND measure), the
// scan is bounds-first: admissible lower bounds order the candidates,
// exact distances are evaluated in that order, and the scan stops once
// the next candidate's bound exceeds the k-th best exact distance —
// every unevaluated candidate is then strictly farther. The returned
// neighbors are bit-identical to the exhaustive scan; only the number
// of exact evaluations changes.
func (ix *Index) NearestNeighbors(ctx context.Context, query opinion.State, k int) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("search: k must be >= 1, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var out []Neighbor
	if pd, ok := ix.dist.(pairDistancer); ok && len(ix.states) > 1 {
		pairs := make([][2]opinion.State, len(ix.states))
		for i := range ix.states {
			pairs[i] = [2]opinion.State{query, ix.states[i]}
		}
		var lbs []float64
		if pb, ok := ix.dist.(pairBounder); ok && len(ix.states) > k {
			var err error
			if lbs, err = pb.DistanceLowerBounds(ctx, pairs); err != nil {
				return nil, err
			}
		}
		screened := false
		for _, lb := range lbs {
			if lb > 0 {
				screened = true // all-zero bounds cannot skip anything
				break
			}
		}
		if screened {
			var err error
			if out, err = ix.screenedScan(ctx, pd, pairs, lbs, k); err != nil {
				return nil, err
			}
		} else {
			ds, err := pd.DistancePairs(ctx, pairs)
			if err != nil {
				return nil, err
			}
			out = make([]Neighbor, 0, len(ds))
			for i, d := range ds {
				out = append(out, Neighbor{Index: i, Dist: d})
			}
		}
	} else {
		out = make([]Neighbor, 0, len(ix.states))
		for i := range ix.states {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d, err := ix.dist.Distance(query, ix.states[i])
			if err != nil {
				return nil, err
			}
			out = append(out, Neighbor{Index: i, Dist: d})
		}
	}
	sortNeighbors(out)
	if k > len(out) {
		k = len(out)
	}
	return out[:k], nil
}

func sortNeighbors(out []Neighbor) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
}

// screenedScan evaluates candidates in ascending lower-bound order, in
// batches, until the next bound exceeds the k-th best exact distance.
// Every unevaluated candidate then satisfies dist >= bound > tau, i.e.
// is strictly farther than the current k-th neighbor, so the evaluated
// set contains the exhaustive top k exactly.
func (ix *Index) screenedScan(ctx context.Context, pd pairDistancer, pairs [][2]opinion.State, lbs []float64, k int) ([]Neighbor, error) {
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lbs[order[a]] != lbs[order[b]] {
			return lbs[order[a]] < lbs[order[b]]
		}
		return order[a] < order[b]
	})
	chunk := k
	if chunk < 16 {
		chunk = 16
	}
	var out []Neighbor
	tau := math.Inf(1)
	batch := make([][2]opinion.State, 0, chunk)
	for start := 0; start < len(order); {
		if len(out) >= k && lbs[order[start]] > tau {
			break
		}
		end := start + chunk
		if end > len(order) {
			end = len(order)
		}
		batch = batch[:0]
		for _, ci := range order[start:end] {
			batch = append(batch, pairs[ci])
		}
		ds, err := pd.DistancePairs(ctx, batch)
		if err != nil {
			return nil, err
		}
		for bi, d := range ds {
			out = append(out, Neighbor{Index: order[start+bi], Dist: d})
		}
		if len(out) >= k {
			sortNeighbors(out)
			tau = out[k-1].Dist
		}
		start = end
	}
	return out, nil
}

// Classify predicts the query's label as the majority label among its
// k nearest labelled states (ties broken by the nearer neighbors).
func (ix *Index) Classify(ctx context.Context, query opinion.State, labels []int, k int) (int, error) {
	if len(labels) != len(ix.states) {
		return 0, fmt.Errorf("search: %d labels for %d states", len(labels), len(ix.states))
	}
	nn, err := ix.NearestNeighbors(ctx, query, k)
	if err != nil {
		return 0, err
	}
	if len(nn) == 0 {
		return 0, fmt.Errorf("search: empty index")
	}
	votes := map[int]int{}
	for _, nb := range nn {
		votes[labels[nb.Index]]++
	}
	best, bestVotes := labels[nn[0].Index], -1
	for _, nb := range nn {
		l := labels[nb.Index]
		if votes[l] > bestVotes {
			best, bestVotes = l, votes[l]
		}
	}
	return best, nil
}

// Clustering is a k-medoids result.
type Clustering struct {
	// Medoids are the indices of the representative states.
	Medoids []int
	// Assign maps each indexed state to its medoid's position in
	// Medoids.
	Assign []int
	// Cost is the sum of distances from each state to its medoid.
	Cost float64
}

// KMedoids clusters the indexed states around k representative states
// by PAM-style alternation with 8 random restarts, keeping the lowest-
// cost clustering. Deterministic for a fixed seed. Cancelling ctx
// aborts between assignment sweeps with ctx.Err(). With a
// batch-capable measure the pair cache is prefilled in one parallel
// batch up front, so the alternation sweeps are pure dense-array
// lookups.
func (ix *Index) KMedoids(ctx context.Context, k, maxIter int, seed int64) (Clustering, error) {
	const restarts = 8
	if ctx == nil {
		ctx = context.Background()
	}
	if k >= 1 && k <= len(ix.states) {
		if err := ix.prefill(ctx); err != nil {
			return Clustering{}, err
		}
	}
	var best Clustering
	bestCost := math.Inf(1)
	for r := 0; r < restarts; r++ {
		c, err := ix.kMedoidsOnce(ctx, k, maxIter, seed+int64(r)*7919)
		if err != nil {
			return Clustering{}, err
		}
		if c.Cost < bestCost {
			best, bestCost = c, c.Cost
		}
	}
	return best, nil
}

func (ix *Index) kMedoidsOnce(ctx context.Context, k, maxIter int, seed int64) (Clustering, error) {
	n := len(ix.states)
	if k < 1 || k > n {
		return Clustering{}, fmt.Errorf("search: k=%d out of range for %d states", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	medoids := rng.Perm(n)[:k]
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return Clustering{}, err
		}
		// Assignment step.
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for m, med := range medoids {
				d, err := ix.between(i, med)
				if err != nil {
					return Clustering{}, err
				}
				if d < bestD {
					best, bestD = m, d
				}
			}
			assign[i] = best
		}
		// Update step.
		changed := false
		for m := range medoids {
			var members []int
			for i, a := range assign {
				if a == m {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestMed, bestCost := medoids[m], math.Inf(1)
			for _, cand := range members {
				cost := 0.0
				for _, i := range members {
					d, err := ix.between(cand, i)
					if err != nil {
						return Clustering{}, err
					}
					cost += d
				}
				if cost < bestCost {
					bestMed, bestCost = cand, cost
				}
			}
			if bestMed != medoids[m] {
				medoids[m] = bestMed
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final assignment and cost.
	total := 0.0
	for i := 0; i < n; i++ {
		best, bestD := 0, math.Inf(1)
		for m, med := range medoids {
			d, err := ix.between(i, med)
			if err != nil {
				return Clustering{}, err
			}
			if d < bestD {
				best, bestD = m, d
			}
		}
		assign[i] = best
		total += bestD
	}
	return Clustering{Medoids: medoids, Assign: assign, Cost: total}, nil
}

// PairwiseMatrix computes the full distance matrix of the indexed
// states (useful for external clustering or MDS-style embedding). With
// a batch-capable measure, all uncached i < j pairs are evaluated in
// one parallel batch and the results feed the index cache, which later
// KMedoids/Classify calls reuse.
func (ix *Index) PairwiseMatrix(ctx context.Context) ([][]float64, error) {
	n := len(ix.states)
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	if err := ix.prefill(ctx); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			d, err := ix.between(i, j)
			if err != nil {
				return nil, err
			}
			out[i][j] = d
			out[j][i] = d
		}
	}
	return out, nil
}
