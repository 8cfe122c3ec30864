package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/cluster"
	"snd/internal/graph"
	"snd/internal/opinion"
)

// gateCase is a hand-built state pair whose forward positive term
// (eqSpec term 0) the bound gate decides over partial rows of plan.
type gateCase struct {
	name string
	plan fanOutPlan
	g    *graph.Digraph
	a, b opinion.State
	opts Options
}

// gateDecidedCases builds one term for each partial plan whose greedy
// upper bound meets its lower bound while some of its cells are
// unknown.
//
// Partial rows: ten sources s_k each point at their own consumer c_k,
// the c_k form a chain, and a last source s_0 (the highest user, so
// the greedy plan serves it last) points at one anchor member of each
// of four banks; every c_k joins bank k mod 4. Each s_k ships its unit
// to c_k at cost 1, and s_0 ships to the banks, all at cost 2: every
// row ships at its row minimum, so the greedy plan costs the lower
// bound. The s_k near the chain's head reach more than
// partialRowColumns columns, so their rows are partial.
//
// K-nearest: sixty sources in three groups and twelve singleton banks
// in a ring; each group's sources point at four banks, whose capacity
// takes exactly that group's mass. Every source ships to its own
// group's banks at its row minimum; the other banks lie farther, past
// each row's radius.
func gateDecidedCases() []gateCase {
	var cases []gateCase
	{
		const nC, nB = 10, 4
		// Users: c_1..c_10 = 0..9, s_1..s_10 = 10..19, anchors 20..23,
		// s_0 = 24.
		n := 2*nC + nB + 1
		bld := graph.NewBuilder(n)
		a, b := opinion.NewState(n), opinion.NewState(n)
		labels := make([]int, n)
		for k := 0; k < nC; k++ {
			c, s := k, nC+k
			bld.AddEdge(s, c)
			if k+1 < nC {
				bld.AddEdge(c, c+1)
			}
			a[s], b[c] = opinion.Positive, opinion.Positive
			labels[c] = (k + 1) % nB
		}
		s0 := n - 1
		a[s0] = opinion.Positive
		for j := 0; j < nB; j++ {
			anchor := 2*nC + j
			bld.AddEdge(s0, anchor)
			a[anchor], b[anchor] = opinion.Positive, opinion.Positive
			labels[anchor] = j
		}
		o := DefaultOptions()
		o.Clusters = labels
		cases = append(cases, gateCase{name: "partial rows", plan: planPartialRows, g: bld.Build(), a: a, b: b, opts: o})
	}
	{
		const groups, perGroup, nB = 3, 20, 12
		// Users: banks 0..11 (a ring), then the sources.
		n := nB + groups*perGroup
		bld := graph.NewBuilder(n)
		a, b := opinion.NewState(n), opinion.NewState(n)
		for j := 0; j < nB; j++ {
			bld.AddEdge(j, (j+1)%nB)
			a[j], b[j] = opinion.Positive, opinion.Positive
		}
		for i := 0; i < groups*perGroup; i++ {
			s, grp := nB+i, i%groups
			a[s] = opinion.Positive
			for j := 0; j < nB/groups; j++ {
				bld.AddEdge(s, grp*nB/groups+j)
			}
		}
		cases = append(cases, gateCase{name: "K-nearest", plan: planKNearest, g: bld.Build(), a: a, b: b, opts: DefaultOptions()})
	}
	return cases
}

// TestBoundGateDecidesPartialTerms pins the bound gate where it decides
// a term over partial rows and over K-nearest rows: the gate's value
// must be the exact one. For each hand-built case the forward term must
// take the case's plan, leave cells unknown and have lb == ub; then
// Series and Distance, with and without a ground provider, must match
// unoptimizedDistance, which solves every term cold with no gate, and
// the engine must report the term bound-decided.
func TestBoundGateDecidesPartialTerms(t *testing.T) {
	ctx := context.Background()
	for _, c := range gateDecidedCases() {
		o := c.opts.withDefaults()
		spec := eqSpec(c.a, c.b, 0)
		bp := newBipartite(reduce(spec, o.Clusters, c.g.N()), o.Gamma, infCost(c.g.N(), o.Costs.MaxCost(), o.EscapeHops))
		tc := termCtx{sc: &scratch{}}
		if plan := tc.fanOutPlan(c.g, &bp); plan != c.plan {
			t.Fatalf("%s: the term takes plan %d, want %d", c.name, plan, c.plan)
		}
		if _, err := tc.fanOutAs(c.g, spec, o, &bp, c.plan); err != nil {
			t.Fatal(err)
		}
		unknown := 0
		for k, row := range bp.rows {
			for j := range row {
				if bp.unknown(k, j) {
					unknown++
				}
			}
		}
		if lb, ub := termBoundsFromRows(&bp, tc.sc); lb != ub || unknown == 0 {
			t.Fatalf("%s: gate bounds [%d, %d] with %d unknown cells; the case must be decided over partial rows", c.name, lb, ub, unknown)
		}
		want, err := unoptimizedDistance(c.g, c.a, c.b, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cacheBytes := range []int64{-1, 0} {
			e := NewEngine(c.g, c.opts, EngineConfig{Workers: 2, GroundCacheBytes: cacheBytes})
			series, err := e.SeriesEps(ctx, []opinion.State{c.a, c.b}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(series[0], want) {
				t.Fatalf("%s cache %d: gated Series %+v, unoptimized %+v", c.name, cacheBytes, series[0], want)
			}
			st := e.Stats()
			if st.TermsBoundDecided == 0 || st.TermsPartialRows+st.TermsKNearest == 0 {
				t.Fatalf("%s cache %d: %d terms bound-decided, %d partial-row and %d K-nearest terms",
					c.name, cacheBytes, st.TermsBoundDecided, st.TermsPartialRows, st.TermsKNearest)
			}
			if cacheBytes < 0 {
				// Without a provider Distance retains nothing either, so
				// it takes the same plan.
				got, err := e.Distance(ctx, c.a, c.b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: gated Distance %+v, unoptimized %+v", c.name, got, want)
				}
			}
			e.Close()
		}
	}
}

// TestSaturatedDistancesMatchFullRows runs the engine where inf, the
// saturated cost, is a few edges long (EscapeHops 1 to 3), so many
// shortest paths end near or past it and every fan-out's cutoff
// decides cells. Pairs with a provider fill complete rows; Series and
// provider-less engines take partial rows, the K-nearest search and
// column runs. Every plan must run, and every Result must match
// unoptimizedDistance's full-graph rows, which saturate only when
// reading a finished row.
func TestSaturatedDistancesMatchFullRows(t *testing.T) {
	ctx := context.Background()
	var total EngineStats
	for hops := 1; hops <= 3; hops++ {
		rng := rand.New(rand.NewSource(int64(hops)))
		g := engineTestGraph(500, 700+int64(hops))
		o := DefaultOptions()
		o.EscapeHops = hops
		o.Clusters = cluster.BFSPartition(g, 12)
		// Slow declines give partial rows, steep ones the K-nearest
		// search, and an unclustered copy with many singleton banks
		// column runs.
		states := []opinion.State{randState(g.N(), 0.5, rng)}
		states = append(states, decline(states[0], 0.05, 4, rng))
		states = append(states, decline(states[1], 0.7, 4, rng))
		var pairs []StatePair
		for i := 0; i+1 < len(states); i++ {
			pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
		}
		singleton := o
		singleton.Clusters = nil
		for _, opts := range []Options{o, singleton} {
			want := unoptimizedPairs(t, g, opts, pairs)
			for _, cacheBytes := range []int64{-1, 0} {
				e := NewEngine(g, opts, EngineConfig{Workers: 2, GroundCacheBytes: cacheBytes})
				series, err := e.SeriesEps(ctx, states, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(series, want) {
					t.Fatalf("hops %d cache %d clusters %v: Series diverged from full rows:\n%v\n%v",
						hops, cacheBytes, opts.Clusters != nil, series, want)
				}
				got, err := e.Pairs(ctx, pairs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hops %d cache %d clusters %v: Pairs diverged from full rows:\n%v\n%v",
						hops, cacheBytes, opts.Clusters != nil, got, want)
				}
				total = addEngineStats(total, e.Stats())
				e.Close()
			}
		}
	}
	t.Logf("terms: %d by column, %d K-nearest, %d partial rows, %d complete rows",
		total.TermsByColumn, total.TermsKNearest, total.TermsPartialRows, total.TermsCompleteRows)
	if total.TermsByColumn == 0 || total.TermsKNearest == 0 || total.TermsPartialRows == 0 || total.TermsCompleteRows == 0 {
		t.Fatal("some fan-out plan never ran at a short escape cost")
	}
}
