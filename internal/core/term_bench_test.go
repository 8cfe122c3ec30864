package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/cluster"
	"snd/internal/dynamics"
	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
)

// benchTerm builds one mid-size EMD* term on a 5000-user scale-free
// network: activeFrac sets the activation density (which drives the
// bank-member target count — the dense case has more columns than
// pruneLimit, the sparse case far fewer), flips the number of opinion
// changes between the two states.
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
// through the worker scratch arena, at a dense and a sparse activation
// with singleton banks. The clustered shape is the one the analyze
// benchmark workload is made of: only deactivations, so the opposite
// side is empty, and 64 banks of scattered members, one column each.
// Run with -benchmem: each term must stay allocation-light (rows,
// headers, targets and column maps all live in the arena).
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
		b.Run(shape.name, func(b *testing.B) {
			tc := termCtx{sc: &scratch{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := termBipartite(g, spec, red, opts, tc, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldShapeInstance assembles one cold bipartite flow instance of the
// shape analyze's terms have: next is base with `users` neutral users
// activated, and the term is eq. 3's (base, next) term with banks on
// the supplier side (banksOnSupplier: residual consumers, the banks
// supply) or its (next, base) term with banks on the consumer side
// (residual suppliers, the banks absorb the surplus), each with the
// reference state of its supplier side. labels nil gives one singleton
// bank per lighter-side active user; 64 BFS labels give the 64
// clustered banks analyze runs with.
func coldShapeInstance(b *testing.B, g *graph.Digraph, labels []int, base opinion.State, users int, banksOnSupplier bool) (*flow.Network, reduction) {
	b.Helper()
	next, pos, neg := base.Clone(), users, users
	for _, u := range rand.New(rand.NewSource(int64(users))).Perm(g.N()) {
		switch {
		case next[u] != opinion.Neutral:
		case pos > 0:
			next[u] = opinion.Positive
			pos--
		case neg > 0:
			next[u] = opinion.Negative
			neg--
		}
	}
	spec := termSpec{op: opinion.Positive, p: base, q: next, ref: base}
	if !banksOnSupplier {
		spec = termSpec{op: opinion.Positive, p: next, q: base, ref: next}
	}
	o := DefaultOptions().withDefaults()
	o.Clusters = labels
	red := reduce(spec, labels, g.N())
	if red.banksOnSupplier != banksOnSupplier {
		b.Fatalf("reduced with banksOnSupplier=%v, want %v", red.banksOnSupplier, banksOnSupplier)
	}
	_, nw, _, err := solvedInstance(context.Background(), g, spec, red, o)
	if err != nil {
		b.Fatal(err)
	}
	return nw, red
}

// BenchmarkColdSolveShape is the probe behind coldSSP: SSP and
// cost-scaling on the same cold bipartite instance. It covers 64
// clustered banks and singleton banks, both orientations, and sizes on
// both sides of each crossover; each name carries the instance's size
// and the solver coldSSP picks for it. The graph and the grown base
// state follow perfbench's analyze workload (20 000 users, 64 BFS
// clusters, 1 000 adopters grown for seven ticks; its singleton banks
// number in the hundreds); the sparse base is 400 fresh adopters.
// Both solvers must reach the same optimum.
func BenchmarkColdSolveShape(b *testing.B) {
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 20000, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 1_000_014,
	})
	ev := dynamics.NewEvolution(g, 1000, 29)
	for t := 0; t < 7; t++ {
		ev.StepSample(400, 0.5, 0.05)
	}
	grown := ev.State()
	sparse := dynamics.NewEvolution(g, 400, 29).State()
	for _, shape := range []struct {
		name   string
		labels []int
		base   opinion.State
		users  []int
	}{
		{"banks64", cluster.BFSPartition(g, 64), grown, []int{50, 100, 200, 400}},
		{"singleton", nil, grown, []int{25}},
		{"singleton-sparse", nil, sparse, []int{50, 200, 400}},
	} {
		for _, onSupplier := range []bool{false, true} {
			for _, users := range shape.users {
				nw, red := coldShapeInstance(b, g, shape.labels, shape.base, users, onSupplier)
				rule := "costscaling"
				if coldSSP(red) {
					rule = "ssp"
				}
				name := fmt.Sprintf("%s/banksOnSupplier=%v/users=%d/banks=%d/nodes=%d/arcs=%d/rule=%s",
					shape.name, onSupplier, users, len(red.banks), nw.N(), nw.NumArcs(), rule)
				sspCost, err1 := solveWith(nw, false)
				csCost, err2 := solveWith(nw, true)
				if err1 != nil || err2 != nil || sspCost != csCost {
					b.Fatalf("%s: ssp %d (%v) vs cost-scaling %d (%v)", name, sspCost, err1, csCost, err2)
				}
				for _, cs := range []bool{false, true} {
					solver := "ssp"
					if cs {
						solver = "costscaling"
					}
					b.Run(name+"/"+solver, func(b *testing.B) {
						for n := 0; n < b.N; n++ {
							if _, err := solveWith(nw, cs); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkFanOutOrientation is the probe behind byColumns and
// fanOutPlan: the four ways to fill one term's rows, on the graph and
// grown state of BenchmarkColdSolveShape with 64 BFS banks. A term's
// first state deactivates `sources` of the grown state's positive
// users, so its sources are those users and its columns the 64 banks;
// the opp=50 variants add 50 neutral users as opposite-side columns
// (the fan-out reads nothing of the reduction but its users and bank
// members). Each name carries the column count and the plan fanOutPlan
// picks. The rows and columns sides must fill identical rows. The
// partial and klabel sides fill the partial rows of planPartialRows and
// planKNearest (these terms' banks absorb); their check, untimed,
// compares every cell within a row's radius with the complete rows and
// every cell past it against the radius, and where the term balances
// (opp=0) solves the rows as termBipartite does, which must reach the
// complete rows' term value.
func BenchmarkFanOutOrientation(b *testing.B) {
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 20000, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 1_000_014,
	})
	ev := dynamics.NewEvolution(g, 1000, 29)
	for t := 0; t < 7; t++ {
		ev.StepSample(400, 0.5, 0.05)
	}
	base := ev.State()
	o := DefaultOptions().withDefaults()
	o.Clusters = cluster.BFSPartition(g, 64)
	perm := rand.New(rand.NewSource(31)).Perm(g.N())
	var neutral []int32
	for _, u := range perm {
		if base[u] == opinion.Neutral && len(neutral) < 50 {
			neutral = append(neutral, int32(u))
		}
	}
	rules := map[fanOutPlan]string{planRows: "rows", planPartialRows: "partial", planColumns: "columns", planKNearest: "klabel"}
	for _, sources := range []int{32, 64, 128, 256, 384, 512} {
		q, left := base.Clone(), sources
		for _, u := range perm {
			if left > 0 && q[u] == opinion.Positive {
				q[u] = opinion.Neutral
				left--
			}
		}
		spec := termSpec{op: opinion.Positive, p: base, q: q, ref: base}
		for _, opp := range []int{0, len(neutral)} {
			red := reduce(spec, o.Clusters, g.N())
			red.C = neutral[:opp]
			bp := newBipartite(red, o.Gamma, infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops))
			if bp.rev || len(bp.sources) != sources || bp.nOpp() != opp {
				b.Fatalf("instance has rev=%v, %d sources, %d opposite users", bp.rev, len(bp.sources), bp.nOpp())
			}
			name := fmt.Sprintf("sources=%d/opp=%d/cols=%d/rule=%s", sources, opp, bp.nCols(), rules[(termCtx{}).fanOutPlan(g, &bp)])
			var want [][]int64
			var wantVal float64
			for _, plan := range []fanOutPlan{planRows, planColumns, planPartialRows, planKNearest} {
				side := rules[plan]
				tc := termCtx{sc: &scratch{}}
				b.Run(name+"/"+side, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := tc.fanOutAs(g, spec, o, &bp, plan); err != nil {
							b.Fatal(err)
						}
					}
				})
				// Refill untimed, so the checks run when the filter skips
				// this side.
				run, err := tc.fanOutAs(g, spec, o, &bp, plan)
				if err != nil {
					b.Fatal(err)
				}
				switch plan {
				case planRows:
					for _, row := range bp.rows {
						want = append(want, append([]int64(nil), row...))
					}
					if opp == 0 { // the opp variants' added users unbalance the instance
						tv, _, err := tc.solveTerm(&bp, 0, false, nil)
						if err != nil {
							b.Fatal(err)
						}
						wantVal = tv.val
					}
				case planColumns:
					if !reflect.DeepEqual(bp.rows, want) {
						b.Fatalf("%s: the column side's rows differ from the row side's", name)
					}
				default:
					if run == nil || bp.radius == nil {
						b.Fatalf("%s/%s: no partial rows filled", name, side)
					}
					for k, row := range bp.rows {
						for j, d := range row {
							if bp.unknown(k, j) && want[k][j] <= bp.radius[k] || !bp.unknown(k, j) && d != want[k][j] {
								b.Fatalf("%s/%s: partial cell (%d, %d) = %d with radius %d, complete %d", name, side, k, j, d, bp.radius[k], want[k][j])
							}
						}
					}
					if opp == 0 {
						tv, _, err := tc.solveRows(&bp, run, 0, false, nil)
						if err != nil || tv.val != wantVal {
							b.Fatalf("%s/%s: partial rows give term value %v (%v), complete rows %v", name, side, tv.val, err, wantVal)
						}
					}
				}
			}
		}
	}
}
