// Package distance implements the baseline distance measures SND is
// evaluated against in the paper's Section 6:
//
//   - Hamming: coordinate-wise disagreement count, representative of
//     all coordinate-wise measures (including l1 on the +1/0/-1
//     encoding, also provided).
//   - QuadForm: the Quadratic-Form distance sqrt((P-Q) L (P-Q)^T) over
//     the graph Laplacian, which mixes coordinate differences through
//     the network structure.
//   - WalkDist: compares per-user "contention" — how far each user's
//     opinion deviates from the mean opinion of their active
//     in-neighbors — summarizing neighborhood disagreement.
//
// Cosine and Canberra distances are included for completeness of the
// related-work comparison (Section 7).
package distance

import (
	"context"
	"fmt"
	"math"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// Measure is a distance between two network states over a fixed
// graph: the baselines here and the engine-backed SND measure
// (predict.SNDMeasure) satisfy it, and the anomaly, prediction and
// search pipelines take it.
type Measure interface {
	// Distance returns the distance between states a and b.
	Distance(a, b opinion.State) (float64, error)
	// Name identifies the measure in experiment tables.
	Name() string
}

// PairDistancer is the optional batch fast path of a Measure: it
// evaluates many (a, b) pairs at once. The engine-backed SND measure
// satisfies it, scheduling every pair's terms across the worker pool.
type PairDistancer interface {
	DistancePairs(ctx context.Context, pairs [][2]opinion.State) ([]float64, error)
}

// SeriesDistancer is the optional series fast path of a Measure: it
// evaluates the distance between every adjacent pair of states at
// once. The engine-backed SND measure satisfies it.
type SeriesDistancer interface {
	Series(ctx context.Context, states []opinion.State) ([]float64, error)
}

func checkStates(n int, a, b opinion.State) error {
	if len(a) != n || len(b) != n {
		return fmt.Errorf("distance: states sized %d/%d for %d users", len(a), len(b), n)
	}
	return nil
}

// Hamming counts coordinate-wise disagreements.
type Hamming struct{ N int }

// Name implements Measure.
func (Hamming) Name() string { return "hamming" }

// Distance implements Measure.
func (h Hamming) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(h.N, a, b); err != nil {
		return 0, err
	}
	return float64(a.DiffCount(b)), nil
}

// Lp is the p-norm distance over the +1/0/-1 encoding.
type Lp struct {
	N int
	P float64 // p >= 1; 1 selects l1, 2 euclidean
}

// Name implements Measure.
func (l Lp) Name() string { return fmt.Sprintf("l%g", l.P) }

// Distance implements Measure.
func (l Lp) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(l.N, a, b); err != nil {
		return 0, err
	}
	if l.P < 1 {
		return 0, fmt.Errorf("distance: Lp needs P >= 1, got %v", l.P)
	}
	s := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d != 0 {
			s += math.Pow(d, l.P)
		}
	}
	return math.Pow(s, 1/l.P), nil
}

// QuadForm is the Laplacian quadratic-form distance
// sqrt((a-b)^T L (a-b)) over the undirected view of the graph:
// sum over edges of ((a-b)_u - (a-b)_v)^2, each directed edge counted
// once.
type QuadForm struct{ G *graph.Digraph }

// Name implements Measure.
func (QuadForm) Name() string { return "quad-form" }

// Distance implements Measure.
func (q QuadForm) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(q.G.N(), a, b); err != nil {
		return 0, err
	}
	total := 0.0
	q.G.Edges(func(u, v int32) bool {
		du := float64(a[u]) - float64(b[u])
		dv := float64(a[v]) - float64(b[v])
		d := du - dv
		total += d * d
		return true
	})
	return math.Sqrt(total), nil
}

// WalkDist compares contention vectors: cnt(S)_i is the absolute
// deviation of user i's opinion from the mean opinion of i's active
// in-neighbors (0 when i has none). The distance is the normalized l1
// difference ||cnt(a) - cnt(b)||_1 / n.
type WalkDist struct{ G *graph.Digraph }

// Name implements Measure.
func (WalkDist) Name() string { return "walk-dist" }

// Distance implements Measure.
func (w WalkDist) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(w.G.N(), a, b); err != nil {
		return 0, err
	}
	ca := Contention(w.G, a)
	cb := Contention(w.G, b)
	s := 0.0
	for i := range ca {
		s += math.Abs(ca[i] - cb[i])
	}
	return s / float64(w.G.N()), nil
}

// Contention returns the per-user contention vector of a state: the
// amount by which each user's opinion deviates from the average active
// in-neighbor's opinion.
func Contention(g *graph.Digraph, st opinion.State) []float64 {
	rev := g.Reverse()
	out := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		sum, n := 0.0, 0
		for _, u := range rev.Out(v) {
			if st[u] != opinion.Neutral {
				sum += float64(st[u])
				n++
			}
		}
		if n == 0 {
			continue
		}
		out[v] = math.Abs(float64(st[v]) - sum/float64(n))
	}
	return out
}

// Cosine is the cosine distance 1 - <a,b>/(|a||b|) over the +1/0/-1
// encoding; two all-neutral states are at distance 0.
type Cosine struct{ N int }

// Name implements Measure.
func (Cosine) Name() string { return "cosine" }

// Distance implements Measure.
func (c Cosine) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(c.N, a, b); err != nil {
		return 0, err
	}
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		if na == nb {
			return 0, nil
		}
		return 1, nil
	}
	return 1 - dot/math.Sqrt(na*nb), nil
}

// Canberra is the Canberra distance sum |a_i-b_i| / (|a_i|+|b_i|) over
// non-zero coordinate pairs.
type Canberra struct{ N int }

// Name implements Measure.
func (Canberra) Name() string { return "canberra" }

// Distance implements Measure.
func (c Canberra) Distance(a, b opinion.State) (float64, error) {
	if err := checkStates(c.N, a, b); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range a {
		num := math.Abs(float64(a[i]) - float64(b[i]))
		den := math.Abs(float64(a[i])) + math.Abs(float64(b[i]))
		if den > 0 {
			s += num / den
		}
	}
	return s, nil
}
