package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"snd/internal/cluster"
	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// unoptimizedPairs is unoptimizedDistance over every pair.
func unoptimizedPairs(t *testing.T, g *graph.Digraph, opts Options, pairs []StatePair) []Result {
	t.Helper()
	out := make([]Result, len(pairs))
	for i, p := range pairs {
		r, err := unoptimizedDistance(g, p.A, p.B, opts)
		if err != nil {
			t.Fatalf("pair %d: unoptimized reference: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// TestGoalPruningMatchesFullRows pins the tentpole's exactness claim at
// the engine level: distances with the goal-pruned fan-out are
// bit-identical to the full-row reference (unoptimizedDistance), across
// clusterings, cache configurations, worker counts, randomized state
// sequences, and the tracked delta path (AdvanceRef lineage, as
// Network.StepFrom drives it).
func TestGoalPruningMatchesFullRows(t *testing.T) {
	g := engineTestGraph(250, 31)
	ctx := context.Background()
	for _, cacheBytes := range []int64{-1, 0} {
		for oi, opts := range engineTestOptions(g) {
			states := engineTestStates(g.N(), 8, 20, int64(40+oi))
			var pairs []StatePair
			for i := 0; i+1 < len(states); i++ {
				pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
			}
			want := unoptimizedPairs(t, g, opts, pairs)
			for _, workers := range []int{1, 4} {
				cfg := EngineConfig{Workers: workers, GroundCacheBytes: cacheBytes}
				got, err := NewEngine(g, opts, cfg).Pairs(ctx, pairs)
				if err != nil {
					t.Fatalf("cache %d opts %d workers %d: pruned: %v", cacheBytes, oi, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cache %d opts %d workers %d: pruned diverged from full rows:\n%v\n%v",
						cacheBytes, oi, workers, got, want)
				}
				tracked := NewEngine(g, opts, cfg)
				for i, p := range pairs {
					var changed []int32
					for u := range p.A {
						if p.A[u] != p.B[u] {
							changed = append(changed, int32(u))
						}
					}
					tracked.AdvanceRef(p.A, p.B, changed)
					res, err := tracked.Distance(ctx, p.A, p.B)
					if err != nil {
						t.Fatalf("cache %d opts %d workers %d step %d: %v", cacheBytes, oi, workers, i, err)
					}
					if !reflect.DeepEqual(res, want[i]) {
						t.Fatalf("cache %d opts %d workers %d step %d: tracked pruned path diverged from full rows:\n%v\n%v",
							cacheBytes, oi, workers, i, res, want[i])
					}
				}
			}
		}
	}
}

// TestIntraTermParallelMatchesSequential pins that splitting a term's
// SSSP fan-out across stealing workers changes no result bit: one
// worker (no help pool) against many workers on batches small enough
// that helpers must steal within terms to participate at all.
func TestIntraTermParallelMatchesSequential(t *testing.T) {
	g := engineTestGraph(300, 33)
	states := engineTestStates(g.N(), 4, 40, 34)
	for oi, opts := range engineTestOptions(g) {
		seq := NewEngine(g, opts, EngineConfig{Workers: 1})
		want, err := seq.Distance(context.Background(), states[0], states[1])
		if err != nil {
			t.Fatalf("opts %d: sequential: %v", oi, err)
		}
		for _, workers := range []int{2, 4, 13} {
			par := NewEngine(g, opts, EngineConfig{Workers: workers})
			// A single Distance has 4 terms; extra workers only
			// contribute via intra-term stealing.
			got, err := par.Distance(context.Background(), states[0], states[1])
			if err != nil {
				t.Fatalf("opts %d workers %d: %v", oi, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %d workers %d: parallel fan-out diverged:\n%v\n%v",
					oi, workers, got, want)
			}
			res, err := par.Series(context.Background(), states)
			if err != nil {
				t.Fatalf("opts %d workers %d: series: %v", oi, workers, err)
			}
			wantSeries, err := seq.Series(context.Background(), states)
			if err != nil {
				t.Fatalf("opts %d: sequential series: %v", oi, err)
			}
			if !reflect.DeepEqual(res, wantSeries) {
				t.Fatalf("opts %d workers %d: series diverged", oi, workers)
			}
		}
	}
}

// TestTrackedRefBuildsTreesAfterUntrackedUse pins that a reference
// state first seen as untracked batch traffic (compact rows cached)
// still builds exact repair-donor trees once it becomes tracked:
// without them every later StepFrom would silently degrade to cold
// Dijkstras.
func TestTrackedRefBuildsTreesAfterUntrackedUse(t *testing.T) {
	g := engineTestGraph(150, 61)
	rng := rand.New(rand.NewSource(62))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	a := randState(g.N(), 0.3, rng)
	b := perturb(a, 10, rng)
	ctx := context.Background()
	// Untracked use: compact rows for a and b go in.
	if _, err := e.Distance(ctx, a, b); err != nil {
		t.Fatal(err)
	}
	// a becomes tracked; the same distance must now retain exact trees
	// under a's entry for the delta path to repair from.
	var changed []int32
	for u := range a {
		if a[u] != b[u] {
			changed = append(changed, int32(u))
		}
	}
	e.AdvanceRef(a, b, changed)
	if _, err := e.Distance(ctx, a, b); err != nil {
		t.Fatal(err)
	}
	p := e.prov
	ent := p.lookup(hashState(a))
	if ent == nil || !ent.tracked {
		t.Fatal("reference state a not tracked after AdvanceRef")
	}
	trees := 0
	for oi := range ent.side {
		trees += len(ent.side[oi].trees)
	}
	if trees == 0 {
		t.Fatal("tracked reference state retained no exact trees; delta repairs have no donor")
	}
}

// TestPrunedTrackedDeltaPath pins that the provider's tracked-state
// fast path (full rows retained for repair, folded into columns by
// rowGoals) stays bit-identical to cold recomputation when pruning and
// stealing are both on.
func TestPrunedTrackedDeltaPath(t *testing.T) {
	g := engineTestGraph(220, 51)
	rng := rand.New(rand.NewSource(52))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 3})
	cold := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1, GroundCacheBytes: -1})
	cur := randState(g.N(), 0.3, rng)
	for tick := 0; tick < 12; tick++ {
		next := cur.Clone()
		var changed []int32
		for k := 0; k < 5; k++ {
			u := rng.Intn(g.N())
			op := opinion.Opinion(rng.Intn(3) - 1)
			if next[u] != op {
				next[u] = op
				changed = append(changed, int32(u))
			}
		}
		e.AdvanceRef(cur, next, changed)
		got, err := e.Distance(context.Background(), cur, next)
		if err != nil {
			t.Fatalf("tick %d: tracked: %v", tick, err)
		}
		want, err := cold.Distance(context.Background(), cur, next)
		if err != nil {
			t.Fatalf("tick %d: cold: %v", tick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: tracked pruned path diverged:\n%v\n%v", tick, got, want)
		}
		cur = next
	}
}

// retainedRows counts the compact rows held across every provider
// entry; the engine must be quiescent.
func retainedRows(p *groundProvider) int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		for _, ent := range s.refs {
			for oi := range ent.side {
				n += len(ent.side[oi].rows)
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// TestSeriesRetentionRule pins both halves of the Series retention
// rule. Across adjacent ticks some users go + -> 0 -> + and others
// - -> + -> -, so row keys of one reference state recur within the
// batch (the one case where a retained Series row could be read back).
// A Series on a fresh engine must still be bit-identical to Pairs over
// the same adjacent pairs on an engine without ground or warm caches,
// and must leave no compact row in the provider; a Matrix over the same
// states, whose reference states recur across pairs, must retain some.
func TestSeriesRetentionRule(t *testing.T) {
	g := engineTestGraph(300, 71)
	rng := rand.New(rand.NewSource(72))
	ctx := context.Background()
	s0 := randState(g.N(), 0.3, rng)
	var pos, neg []int
	for u, op := range s0 {
		switch {
		case op == opinion.Positive && len(pos) < 12:
			pos = append(pos, u)
		case op == opinion.Negative && len(neg) < 12:
			neg = append(neg, u)
		}
	}
	// Odd ticks move pos to 0 and neg to +, even ticks move them back;
	// every tick also flips a few other users so the terms carry banks.
	states := []opinion.State{s0}
	for tick := 1; tick <= 4; tick++ {
		st := perturb(states[tick-1], 6, rng)
		for _, u := range pos {
			st[u] = opinion.Positive
			if tick%2 == 1 {
				st[u] = opinion.Neutral
			}
		}
		for _, u := range neg {
			st[u] = opinion.Negative
			if tick%2 == 1 {
				st[u] = opinion.Positive
			}
		}
		states = append(states, st)
	}
	pairs := make([]StatePair, len(states)-1)
	for i := range pairs {
		pairs[i] = StatePair{A: states[i], B: states[i+1]}
	}
	for oi, opts := range engineTestOptions(g) {
		bare := NewEngine(g, opts, EngineConfig{Workers: 2, GroundCacheBytes: -1, WarmCacheBytes: -1})
		want, err := bare.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: Pairs: %v", oi, err)
		}
		e := NewEngine(g, opts, EngineConfig{Workers: 2})
		got, err := e.SeriesEps(ctx, states, 0)
		if err != nil {
			t.Fatalf("opts %d: Series: %v", oi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %d: Series diverged from uncached Pairs:\n%v\n%v", oi, got, want)
		}
		if n := retainedRows(e.prov); n != 0 {
			t.Fatalf("opts %d: Series retained %d compact rows, want none", oi, n)
		}
		if _, err := e.Matrix(ctx, states); err != nil {
			t.Fatalf("opts %d: Matrix: %v", oi, err)
		}
		if retainedRows(e.prov) == 0 {
			t.Fatalf("opts %d: Matrix retained no compact rows", oi)
		}
	}
}

// TestColumnFanOutMatchesRows pins the orientation rule's exactness:
// the row side (one goal search per source) and the column side (one
// per opposite user plus one multi-source run per bank, on the
// transposed graph) fill bit-identical rows and give identical term
// values. It covers forward and reversed terms, clustered and singleton
// banks, terms with and without opposite users, sparse graphs whose
// unreachable pairs and short escape radius saturate at the bp.inf
// cutoff, terms with more columns than pruneLimit (whose rows the goal
// search fills like any other), and workers 1, 2 and 4 stealing
// through a help pool.
func TestColumnFanOutMatchesRows(t *testing.T) {
	type shape struct{ rev, clustered, opp bool }
	seen := map[shape]bool{}
	saturated, dense := false, false
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, active := 60+rng.Intn(90), 0.35
		if seed%6 == 5 {
			n, active = 400+rng.Intn(100), 0.7
		}
		g := graph.ErdosRenyi(n, n+rng.Intn(3*n), seed+500)
		o := DefaultOptions().withDefaults()
		if seed%3 == 0 {
			o.EscapeHops = 2
		}
		if seed%2 == 0 {
			o.Clusters = make([]int, n)
			for i := range o.Clusters {
				o.Clusters[i] = i % 5
			}
		}
		a := randState(n, active, rng)
		b := a.Clone()
		if seed%4 < 2 {
			// Deactivations only: the forward terms have no opposite
			// users, the reversed ones no sources past their banks.
			for u := range b {
				if b[u] != opinion.Neutral && rng.Intn(2) == 0 {
					b[u] = opinion.Neutral
				}
			}
		} else {
			b = perturb(a, n/3, rng)
		}
		for ti := 0; ti < 4; ti++ {
			spec := eqSpec(a, b, ti)
			red := reduce(spec, o.Clusters, n)
			bp := newBipartite(red, o.Gamma, infCost(n, o.Costs.MaxCost(), o.EscapeHops))
			if len(bp.sources) == 0 || bp.nCols() == 0 {
				continue
			}
			seen[shape{bp.rev, o.Clusters != nil, bp.nOpp() > 0}] = true
			dense = dense || bp.nCols() > pruneLimit(n)
			for _, workers := range []int{1, 2, 4} {
				tc := termCtx{sc: &scratch{}}
				stop := func() {}
				if workers > 1 {
					tc.help, stop = startHelpers(workers - 1)
				}
				// Rows fix the value; solving at one worker count keeps
				// the flow solves from dominating the test.
				solve := workers == 1
				rows, rowVal := fanOutAndSolve(t, g, spec, o, tc, bp, false, solve)
				cols, colVal := fanOutAndSolve(t, g, spec, o, tc, bp, true, solve)
				stop()
				if !reflect.DeepEqual(rows, cols) {
					t.Fatalf("seed %d term %d workers %d: column rows diverged:\n%v\n%v",
						seed, ti, workers, cols, rows)
				}
				if rowVal != colVal {
					t.Fatalf("seed %d term %d workers %d: term value %v by column, %v by row",
						seed, ti, workers, colVal, rowVal)
				}
				for _, row := range rows {
					for _, d := range row {
						saturated = saturated || d == sssp.Unreachable
					}
				}
			}
		}
	}
	for _, rev := range []bool{false, true} {
		for _, clustered := range []bool{false, true} {
			for _, opp := range []bool{false, true} {
				if !seen[shape{rev, clustered, opp}] {
					t.Errorf("no term with rev=%v clustered=%v opposite users=%v", rev, clustered, opp)
				}
			}
		}
	}
	if !saturated {
		t.Error("no fan-out cell saturated at the cutoff")
	}
	if !dense {
		t.Error("no term had more columns than pruneLimit")
	}
}

// startHelpers starts k idle workers stealing from a fresh help pool,
// each with its own scratch; stop closes the pool and waits for them.
func startHelpers(k int) (hp *helpPool, stop func()) {
	hp = newHelpPool()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hp.help(&scratch{})
		}()
	}
	return hp, func() {
		hp.close()
		wg.Wait()
	}
}

// fanOutAndSolve fills a copy of bp in the given orientation and, if
// asked, solves it exactly; it returns a copy of the rows (the arena is
// reused by the next fan-out) and the term value (0 unsolved).
func fanOutAndSolve(t *testing.T, g *graph.Digraph, spec termSpec, o Options, tc termCtx, bp bipartite, byCols, solve bool) ([][]int64, float64) {
	t.Helper()
	plan := planRows
	if byCols {
		plan = planColumns
	}
	if _, err := tc.fanOutAs(g, spec, o, &bp, plan); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, len(bp.rows))
	for k, row := range bp.rows {
		rows[k] = append([]int64(nil), row...)
	}
	if !solve {
		return rows, 0
	}
	tv, _, err := tc.solveTerm(&bp, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows, tv.val
}

// TestTrackedRefKeepsRowFanOut pins where the column side may run. A
// Series term over an untracked reference state with few columns runs
// by column, but once the state is tracked the same term keeps the row
// side, whose runs build the exact trees StepFrom repairs from; a Pairs
// term, which retains compact rows, keeps it too. The Series over the
// tracked state must retain those trees and stay bit-identical to a
// cold engine.
func TestTrackedRefKeepsRowFanOut(t *testing.T) {
	g := engineTestGraph(300, 81)
	rng := rand.New(rand.NewSource(82))
	o := DefaultOptions()
	o.Clusters = make([]int, g.N())
	for i := range o.Clusters {
		o.Clusters[i] = i % 4
	}
	a := randState(g.N(), 0.3, rng)
	b := a.Clone()
	var changed []int32
	for u := range b {
		if b[u] != opinion.Neutral && rng.Intn(2) == 0 {
			b[u] = opinion.Neutral
			changed = append(changed, int32(u))
		}
	}
	ctx := context.Background()
	e := NewEngine(g, o, EngineConfig{Workers: 3})
	spec := eqSpec(a, b, 0)
	red := reduce(spec, o.Clusters, g.N())
	bp := newBipartite(red, o.Gamma, 0)
	series := termCtx{prov: e.prov, refHash: hashState(a), series: true}
	byCols := func(tc termCtx) bool { p := tc.fanOutPlan(g, &bp); return p == planColumns || p == planKNearest }
	if !byCols(series) {
		t.Fatalf("untracked Series term with %d sources and %d columns keeps the row side", len(bp.sources), bp.nCols())
	}
	if pairs := (termCtx{prov: e.prov, refHash: hashState(a)}); byCols(pairs) {
		t.Fatal("Pairs term takes the column side; its compact rows would go unretained")
	}
	e.AdvanceRef(a, b, changed)
	if byCols(series) {
		t.Fatal("tracked Series term takes the column side; StepFrom would lose its repair trees")
	}
	got, err := e.Series(ctx, []opinion.State{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(g, o, EngineConfig{Workers: 1, GroundCacheBytes: -1}).Series(ctx, []opinion.State{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracked Series diverged from cold:\n%v\n%v", got, want)
	}
	ent := e.prov.lookup(hashState(a))
	if ent == nil || !ent.tracked {
		t.Fatal("reference state a not tracked after AdvanceRef")
	}
	for _, s := range bp.sources {
		if ent.side[opIdx(spec.op)].trees[treeKey{reversed: bp.rev, src: s}] == nil {
			t.Fatalf("tracked reference state retained no tree for source %d; its delta repairs have no donor", s)
		}
	}
}

// decline returns st with about frac of its active users turned
// neutral and add neutral users activated: a Series step whose forward
// terms have absorbing banks, as analyze's non-event ticks do.
func decline(st opinion.State, frac float64, add int, rng *rand.Rand) opinion.State {
	out := st.Clone()
	for u := range out {
		if out[u] != opinion.Neutral && rng.Float64() < frac {
			out[u] = opinion.Neutral
		}
	}
	for ; add > 0; add-- {
		if u := rng.Intn(len(out)); out[u] == opinion.Neutral {
			out[u] = opinion.Positive
			if rng.Intn(2) == 0 {
				out[u] = opinion.Negative
			}
		}
	}
	return out
}

// TestPartialRowsMatchCompleteRows pins the exactness of partial rows
// and of their known-cell flow instances. Series terms whose banks
// absorb either stop each source's search once partialRowColumns
// columns settle, or, where their sources outnumber their columns, run
// one K-nearest-column search; their Results must be bit-identical to
// complete rows (unoptimizedDistance's full-graph runs), at workers 1,
// 2 and 4, with and without a ground provider, over BFS-clustered and
// singleton banks. Across the cases both plans must run, and some plan
// must ship on an unknown cell (a crossed-row re-solve). The test also
// checks the bound gate on every such term: its lower bound must be
// the one the cells' lower bounds give, and its greedy upper bound the
// one the same rows give with every unknown cell charged inf, never
// less.
func TestPartialRowsMatchCompleteRows(t *testing.T) {
	ctx := context.Background()
	var total EngineStats
	gated := map[fanOutPlan]int{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := engineTestGraph(400+20*int(seed), 90+seed)
		o := DefaultOptions()
		if seed%3 != 2 {
			o.Clusters = cluster.BFSPartition(g, 12+4*int(seed%4))
		}
		// The first series declines slowly (partial rows); the second
		// starts denser and sheds most of its users, so its sources
		// outnumber four times its columns (the K-nearest search).
		slow := []opinion.State{randState(g.N(), 0.25, rng)}
		for i := 0; i < 3; i++ {
			slow = append(slow, decline(slow[i], 0.15+0.1*float64(i), 4, rng))
		}
		steep := []opinion.State{randState(g.N(), 0.5, rng)}
		for i := 0; i < 2; i++ {
			steep = append(steep, decline(steep[i], 0.6, 4, rng))
		}
		for _, states := range [][]opinion.State{slow, steep} {
			var pairs []StatePair
			for i := 0; i+1 < len(states); i++ {
				pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
			}
			want := unoptimizedPairs(t, g, o, pairs)
			for _, workers := range []int{1, 2, 4} {
				for _, cacheBytes := range []int64{-1, 0} {
					e := NewEngine(g, o, EngineConfig{Workers: workers, GroundCacheBytes: cacheBytes})
					got, err := e.SeriesEps(ctx, states, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d workers %d cache %d: partial rows diverged from complete rows:\n%v\n%v",
							seed, workers, cacheBytes, got, want)
					}
					total = addEngineStats(total, e.Stats())
				}
			}

			do := o.withDefaults()
			for i := 0; i+1 < len(states); i++ {
				for ti := 0; ti < 4; ti++ {
					spec := eqSpec(states[i], states[i+1], ti)
					red := reduce(spec, do.Clusters, g.N())
					bp := newBipartite(red, do.Gamma, infCost(g.N(), do.Costs.MaxCost(), do.EscapeHops))
					tc := termCtx{sc: &scratch{}}
					plan := tc.fanOutPlan(g, &bp)
					if plan != planPartialRows && plan != planKNearest {
						continue
					}
					gated[plan]++
					if _, err := tc.fanOutAs(g, spec, do, &bp, plan); err != nil {
						t.Fatal(err)
					}
					checkPartialGate(t, &bp)
				}
			}
		}
	}
	t.Logf("terms: %d partial rows, %d K-nearest; %d crossed-row and %d priced re-solves",
		total.TermsPartialRows, total.TermsKNearest, total.CrossedResolves, total.PricedResolves)
	if total.TermsPartialRows == 0 || gated[planPartialRows] == 0 {
		t.Fatal("no term ran partial rows")
	}
	if total.TermsKNearest == 0 || gated[planKNearest] == 0 {
		t.Fatal("no term ran the K-nearest search")
	}
	if total.CrossedResolves == 0 {
		t.Error("no plan crossed an unknown cell; the crossed-row re-solve went untested")
	}
}

// addEngineStats sums the fan-out plan counters the partial-row tests
// read.
func addEngineStats(a, b EngineStats) EngineStats {
	a.TermsByColumn += b.TermsByColumn
	a.TermsKNearest += b.TermsKNearest
	a.TermsPartialRows += b.TermsPartialRows
	a.TermsCompleteRows += b.TermsCompleteRows
	a.CrossedResolves += b.CrossedResolves
	a.PricedResolves += b.PricedResolves
	return a
}

// checkPartialGate compares the bound gate on bp's partial rows with
// the gate on two complete copies: one that keeps every unknown cell's
// lower bound (the lower bound must match it) and one that charges
// every unknown cell inf (the upper bound must match it).
func checkPartialGate(t *testing.T, bp *bipartite) {
	t.Helper()
	lb, ub := termBoundsFromRows(bp, &scratch{})
	low, high := *bp, *bp
	low.radius, high.radius = nil, nil
	high.rows = make([][]int64, len(bp.rows))
	unknown := 0
	for k, row := range bp.rows {
		high.rows[k] = append([]int64(nil), row...)
		for j := range row {
			if bp.unknown(k, j) {
				high.rows[k][j] = sssp.Unreachable
				unknown++
			}
		}
	}
	if unknown == 0 {
		return
	}
	if wantLB, _ := termBoundsFromRows(&low, &scratch{}); lb != wantLB {
		t.Fatalf("gate lower bound %d on partial rows, %d on their lower bounds", lb, wantLB)
	}
	if _, wantUB := termBoundsFromRows(&high, &scratch{}); ub != wantUB {
		t.Fatalf("gate upper bound %d on partial rows, %d with unknown cells at inf", ub, wantUB)
	}
}
