package core

import (
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// benchTerm builds one mid-size EMD* term on a 5000-user scale-free
// network: activeFrac sets the activation density (which drives the
// bank-member target count — the dense case exceeds the fan-out's
// pruning threshold, the sparse case engages the goal-pruned search),
// flips the number of opinion changes between the two states.
func benchTerm(b *testing.B, activeFrac float64, flips int) (*graph.Digraph, termSpec, Options) {
	b.Helper()
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 5000, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 17,
	})
	rng := rand.New(rand.NewSource(18))
	a := randState(g.N(), activeFrac, rng)
	bb := perturb(a, flips, rng)
	opts := DefaultOptions().withDefaults()
	return g, termSpec{op: 1, p: a, q: bb, ref: a}, opts
}

// BenchmarkTermBipartite measures one term of the Theorem 4 pipeline
// through the worker scratch arena — the auto path (goal-pruned below
// the column-density threshold, full rows above it) against the pinned
// pre-pruning fan-out, at a dense and a sparse activation with
// singleton banks. The clustered shape is the one the analyze
// benchmark workload is made of: only deactivations, so the opposite
// side is empty, and 64 banks of scattered members, one column each.
// Run with -benchmem: the auto
// variants must stay allocation-light (rows, headers, targets and
// column maps all live in the arena).
func BenchmarkTermBipartite(b *testing.B) {
	for _, shape := range []struct {
		name       string
		activeFrac float64
		flips      int
		clusters   int
	}{{"dense", 0.1, 200, 0}, {"sparse", 0.01, 40, 0}, {"clustered", 0.3, 100, 64}} {
		g, spec, opts := benchTerm(b, shape.activeFrac, shape.flips)
		var labels []int
		if shape.clusters > 0 {
			labels = make([]int, g.N())
			for i := range labels {
				labels[i] = i % shape.clusters
			}
			q, left := spec.p.Clone(), shape.flips
			for _, u := range rand.New(rand.NewSource(19)).Perm(g.N()) {
				if left > 0 && q[u] == spec.op {
					q[u] = opinion.Neutral
					left--
				}
			}
			spec.q = q
		}
		red := reduce(spec, labels, g.N())
		for _, cfg := range []struct {
			name  string
			prune bool
		}{{"auto", true}, {"fullrows", false}} {
			b.Run(shape.name+"/"+cfg.name, func(b *testing.B) {
				o := opts
				if !cfg.prune {
					o.ablate = ablateGoalPrune
				}
				sc := &scratch{}
				tc := termCtx{sc: sc}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := termBipartite(g, spec, red, o, tc, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
