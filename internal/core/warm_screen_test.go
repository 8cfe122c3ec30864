package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"snd/internal/opinion"
)

// TestWarmStartMatchesCold pins the warm-start exactness claim at the
// engine level: repeated Series and Matrix traffic (the workloads whose
// second pass exact-hits retained bases, and whose overlapping
// instances transplant) is bit-identical with and without warm
// starting, across clusterings and worker counts.
func TestWarmStartMatchesCold(t *testing.T) {
	g := engineTestGraph(250, 71)
	for oi, opts := range engineTestOptions(g) {
		for _, workers := range []int{1, 3} {
			we := NewEngine(g, opts, EngineConfig{Workers: workers})
			ce := NewEngine(g, opts, EngineConfig{Workers: workers, WarmCacheBytes: -1})
			states := engineTestStates(g.N(), 6, 25, int64(100+oi))
			ctx := context.Background()
			for pass := 0; pass < 2; pass++ { // second pass hits retained bases
				got, err := we.Series(ctx, states)
				if err != nil {
					t.Fatalf("opts %d workers %d pass %d: warm series: %v", oi, workers, pass, err)
				}
				want, err := ce.Series(ctx, states)
				if err != nil {
					t.Fatalf("opts %d workers %d pass %d: cold series: %v", oi, workers, pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("opts %d workers %d pass %d: warm series diverged:\n%v\n%v",
						oi, workers, pass, got, want)
				}
			}
			gotM, err := we.Matrix(ctx, states)
			if err != nil {
				t.Fatalf("opts %d workers %d: warm matrix: %v", oi, workers, err)
			}
			wantM, err := ce.Matrix(ctx, states)
			if err != nil {
				t.Fatalf("opts %d workers %d: cold matrix: %v", oi, workers, err)
			}
			if !reflect.DeepEqual(gotM, wantM) {
				t.Fatalf("opts %d workers %d: warm matrix diverged", oi, workers)
			}
		}
	}
}

// TestWarmBasesSurviveWorkersAndGC pins that retained bases belong to
// the engine, not to a worker or its pooled scratch arena: after a
// two-worker Series and two GC cycles, repeating the Series serves
// every term whose basis the first pass retained as an exact hit,
// whichever worker picks it up. Results match a cold engine bit for
// bit.
func TestWarmBasesSurviveWorkersAndGC(t *testing.T) {
	g := engineTestGraph(300, 75)
	states := engineTestStates(g.N(), 8, 30, 76)
	ctx := context.Background()
	we := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	ce := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2, WarmCacheBytes: -1})
	want, err := ce.SeriesEps(ctx, states, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := we.SeriesEps(ctx, states, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A term is warm-eligible when the first pass retained its instance.
	eligible := 0
	for i := 0; i+1 < len(states); i++ {
		for term := 0; term < 4; term++ {
			spec := eqSpec(states[i], states[i+1], term)
			red := reduce(spec, nil, g.N())
			h := hashState(spec.ref)
			for _, wb := range we.warm.entries {
				if wb.refHash == h && wb.op == spec.op && wb.sameStructure(red) {
					eligible++
					break
				}
			}
		}
	}
	if eligible < 4 {
		t.Fatalf("first pass retained %d term instances, want at least 4", eligible)
	}
	runtime.GC()
	runtime.GC()
	before := we.Stats()
	second, err := we.SeriesEps(ctx, states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits := we.Stats().Sub(before).TermsWarmExact; hits != int64(eligible) {
		t.Fatalf("second pass: %d exact hits, want all %d warm-eligible terms", hits, eligible)
	}
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
		t.Fatalf("warm series diverged from cold:\n%+v\n%+v\n%+v", first, second, want)
	}
}

// TestWarmRingConcurrentBatches races overlapping Pairs and Series
// batches on one engine, so its shared warm ring is looked up, stored
// into, refreshed, stripped and evicted from several batches at once
// (the small budget holds about 30 bases). Every result must be
// bit-identical to a cold engine's.
func TestWarmRingConcurrentBatches(t *testing.T) {
	g := engineTestGraph(250, 77)
	states := engineTestStates(g.N(), 6, 25, 78)
	ctx := context.Background()
	pairs := make([]StatePair, 0, len(states))
	for i := range states {
		pairs = append(pairs, StatePair{A: states[0], B: states[i]})
	}
	ce := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2, WarmCacheBytes: -1})
	wantPairs, err := ce.Pairs(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := ce.SeriesEps(ctx, states, 0)
	if err != nil {
		t.Fatal(err)
	}
	we := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2, WarmCacheBytes: 64 << 10})
	const goroutines, rounds = 4, 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (gi+r)%2 == 0 {
					got, err := we.Pairs(ctx, pairs)
					if err == nil && !reflect.DeepEqual(got, wantPairs) {
						err = fmt.Errorf("goroutine %d round %d: pairs diverged from cold", gi, r)
					}
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				got, err := we.SeriesEps(ctx, states, 0)
				if err == nil && !reflect.DeepEqual(got, wantSeries) {
					err = fmt.Errorf("goroutine %d round %d: series diverged from cold", gi, r)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := we.Stats(); s.TermsWarmExact+s.TermsWarmSolved == 0 {
		t.Fatalf("no term started from a retained basis: %+v", s)
	}
}

// TestWarmStartMonitoringMatchesCold drives the transplant path the way
// nearest-neighbor and monitoring traffic does — one fixed query state
// against a slowly evolving series, where consecutive instances share
// most of their users — and pins every result to the cold pipeline.
func TestWarmStartMonitoringMatchesCold(t *testing.T) {
	g := engineTestGraph(300, 73)
	rng := rand.New(rand.NewSource(74))
	query := randState(g.N(), 0.3, rng)
	cur := perturb(query, 40, rng)
	opts := DefaultOptions()
	we := NewEngine(g, opts, EngineConfig{Workers: 1})
	ce := NewEngine(g, opts, EngineConfig{Workers: 1, WarmCacheBytes: -1})
	ctx := context.Background()
	for tick := 0; tick < 25; tick++ {
		got, err := we.Distance(ctx, query, cur)
		if err != nil {
			t.Fatalf("tick %d: warm: %v", tick, err)
		}
		want, err := ce.Distance(ctx, query, cur)
		if err != nil {
			t.Fatalf("tick %d: cold: %v", tick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: warm result diverged:\n%+v\n%+v", tick, got, want)
		}
		cur = perturb(cur, 3, rng)
	}
	if s := we.Stats(); s.TermsWarmExact+s.TermsWarmSolved == 0 {
		t.Fatalf("monitoring workload never warmed: %+v", s)
	}
}

// TestScreenedPairsAndMatrixMatchExhaustive pins the bounds-first
// decided passes: batches salted with identical-state pairs and
// duplicate states produce results bit-identical to the unscreened
// reference (unoptimizedDistance on every pair, the matrix filled from
// its i < j pairs).
func TestScreenedPairsAndMatrixMatchExhaustive(t *testing.T) {
	g := engineTestGraph(200, 75)
	states := engineTestStates(g.N(), 5, 20, 76)
	// Salt with duplicates (same content, distinct backing arrays).
	states = append(states, states[1].Clone(), states[3].Clone(), states[1].Clone())
	var pairs []StatePair
	for i := range states {
		for j := range states {
			pairs = append(pairs, StatePair{A: states[i], B: states[j]})
		}
	}
	n := len(states)
	for oi, opts := range engineTestOptions(g) {
		se := NewEngine(g, opts, EngineConfig{Workers: 3})
		ctx := context.Background()
		got, err := se.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: screened pairs: %v", oi, err)
		}
		want := unoptimizedPairs(t, g, opts, pairs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %d: screened pairs diverged", oi)
		}
		gotM, err := se.Matrix(ctx, states)
		if err != nil {
			t.Fatalf("opts %d: screened matrix: %v", oi, err)
		}
		wantM := make([][]float64, n)
		for i := range wantM {
			wantM[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				wantM[i][j] = want[i*n+j].SND
				wantM[j][i] = want[i*n+j].SND
			}
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("opts %d: screened matrix diverged", oi)
		}
		if oi == 0 {
			if s := se.Stats(); s.PairsDecided == 0 {
				t.Fatalf("identical pairs never decided: %+v", s)
			}
		}
	}
}

// TestEngineLowerBoundsAdmissible pins Engine.LowerBounds at or below
// the exact SND for every pair — cold (mass-mismatch term only) and
// warm (row-minima refinement against the provider's retained rows).
func TestEngineLowerBoundsAdmissible(t *testing.T) {
	const slack = 1e-9
	g := engineTestGraph(220, 77)
	for oi, opts := range engineTestOptions(g) {
		e := NewEngine(g, opts, EngineConfig{Workers: 2})
		states := engineTestStates(g.N(), 6, 30, int64(200+oi))
		var pairs []StatePair
		for i := range states {
			for j := i + 1; j < len(states); j++ {
				pairs = append(pairs, StatePair{A: states[i], B: states[j]})
			}
		}
		ctx := context.Background()
		coldLBs, err := e.LowerBounds(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: cold bounds: %v", oi, err)
		}
		results, err := e.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: pairs: %v", oi, err)
		}
		warmLBs, err := e.LowerBounds(ctx, pairs) // provider rows now cached
		if err != nil {
			t.Fatalf("opts %d: warm bounds: %v", oi, err)
		}
		for k, r := range results {
			if coldLBs[k] > r.SND+slack {
				t.Fatalf("opts %d pair %d: cold bound %v > exact %v", oi, k, coldLBs[k], r.SND)
			}
			if warmLBs[k] > r.SND+slack {
				t.Fatalf("opts %d pair %d: warm bound %v > exact %v", oi, k, warmLBs[k], r.SND)
			}
			if warmLBs[k] < coldLBs[k] {
				t.Fatalf("opts %d pair %d: refinement lowered the bound: %v < %v",
					oi, k, warmLBs[k], coldLBs[k])
			}
		}
	}
}

// TestTransplantArcLayout checks the layout the warm transplant
// indexes by against the assembled, solved network, in both
// orientations: the node the layout names for each source and column
// carries that entity's declared mass, the arcs it names carry exactly
// each node's mass in flow, and the moves Explain reports ship each
// user's mass out of (or into) the node the layout names for that
// user. A wrong layout would not corrupt results — the warm drain
// repairs anything — but it would silently replay flow onto the wrong
// arcs and erase the speedup, which no exactness test can catch.
func TestTransplantArcLayout(t *testing.T) {
	g := engineTestGraph(150, 79)
	rng := rand.New(rand.NewSource(80))
	orientations := map[bool]bool{}
	for trial := 0; trial < 40; trial++ {
		a := randState(g.N(), 0.3, rng)
		b := perturb(a, 5+rng.Intn(30), rng)
		var clusters []int
		if trial%2 == 1 {
			clusters = make([]int, g.N())
			for i := range clusters {
				clusters[i] = i % 8
			}
		}
		o := DefaultOptions()
		o.Clusters = clusters
		o = o.withDefaults()
		for term := 0; term < 4; term++ {
			spec := eqSpec(a, b, term)
			red := reduce(spec, clusters, g.N())
			if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
				continue
			}
			bp, nw, _, err := solvedInstance(context.Background(), g, spec, red, o)
			if err != nil {
				t.Fatalf("trial %d term %d: %v", trial, term, err)
			}
			orientations[bp.rev] = true
			if nw.NumArcs() != bp.numArcs() {
				t.Fatalf("trial %d term %d: %d arcs assembled, layout names %d", trial, term, nw.NumArcs(), bp.numArcs())
			}
			// Sources supply in the forward orientation, columns in the
			// reversed one.
			rowSign, colSign := int64(1), int64(-1)
			if bp.rev {
				rowSign, colSign = -1, 1
			}
			type entity struct {
				user int
				bank bool
			}
			nodeOf := map[entity]int{}
			for k, u := range bp.sources {
				node := bp.rowNode(k)
				if got := nw.Excess(node); got != rowSign*red.scale {
					t.Fatalf("trial %d term %d: source %d at node %d has excess %d, want %d", trial, term, k, node, got, rowSign*red.scale)
				}
				var shipped int64
				for j := 0; j < bp.nCols(); j++ {
					shipped += nw.Flow(bp.arc(k, j))
				}
				if shipped != red.scale {
					t.Fatalf("trial %d term %d: source %d: arcs carry %d, want %d", trial, term, k, shipped, red.scale)
				}
				nodeOf[entity{int(u), false}] = node
			}
			for j := 0; j < bp.nCols(); j++ {
				node := bp.colNode(j)
				if got := nw.Excess(node); got != colSign*bp.colMass(j) {
					t.Fatalf("trial %d term %d: column %d at node %d has excess %d, want %d", trial, term, j, node, got, colSign*bp.colMass(j))
				}
				var shipped int64
				for k := range bp.sources {
					shipped += nw.Flow(bp.arc(k, j))
				}
				if shipped != bp.colMass(j) {
					t.Fatalf("trial %d term %d: column %d: arcs carry %d, want %d", trial, term, j, shipped, bp.colMass(j))
				}
				if j < bp.nOpp() {
					nodeOf[entity{int(bp.opposite[j]), false}] = node
				} else {
					nodeOf[entity{int(red.banks[j-bp.nOpp()].members[0]), true}] = node
				}
			}
			sent, received := map[int]float64{}, map[int]float64{}
			for _, mv := range bp.moves(nw) {
				from, ok1 := nodeOf[entity{mv.From, mv.FromBank}]
				to, ok2 := nodeOf[entity{mv.To, mv.ToBank}]
				if !ok1 || !ok2 {
					t.Fatalf("trial %d term %d: move %+v names an entity outside the instance", trial, term, mv)
				}
				sent[from] += mv.Amount
				received[to] += mv.Amount
			}
			for node, amount := range sent {
				if want := float64(nw.Excess(node)) / float64(red.scale); math.Abs(amount-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("trial %d term %d: node %d sends %v, excess says %v", trial, term, node, amount, want)
				}
			}
			for node, amount := range received {
				if want := -float64(nw.Excess(node)) / float64(red.scale); math.Abs(amount-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("trial %d term %d: node %d receives %v, excess says %v", trial, term, node, amount, want)
				}
			}
		}
	}
	if !orientations[false] || !orientations[true] {
		t.Fatalf("trials covered orientations %v, want both", orientations)
	}
}

// TestTrackedExactHitWithStrippedBasis reproduces the crash scenario of
// a structure-only warm basis: a tracked reference state's term
// instance exact-matches a basis whose transplant data was stripped
// under budget pressure. The tracked branch must then solve cold rather
// than transplant from the missing data.
func TestTrackedExactHitWithStrippedBasis(t *testing.T) {
	g := engineTestGraph(200, 91)
	rng := rand.New(rand.NewSource(92))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	ctx := context.Background()
	prev := randState(g.N(), 0.3, rng)
	tracked := perturb(prev, 5, rng)
	var changed []int32
	for u := range prev {
		if prev[u] != tracked[u] {
			changed = append(changed, int32(u))
		}
	}
	e.AdvanceRef(prev, tracked, changed)
	query := perturb(tracked, 40, rng)
	for round := 0; round < 3; round++ {
		if round > 0 {
			// Terms 2-3 run over the tracked state; each must meet its
			// own structure-only basis.
			for term := 2; term < 4; term++ {
				spec := eqSpec(query, tracked, term)
				red := reduce(spec, nil, g.N())
				bp := newBipartite(red, 0, 0)
				sc := &scratch{}
				sc.markInstance(g.N(), red)
				if _, exact, donor := e.warm.lookup(sc, hashState(tracked), spec, &bp, false); exact || donor != nil {
					t.Fatalf("round %d term %d: lookup gave exact %v donor %v, want a stripped match", round, term, exact, donor != nil)
				}
				found := false
				for _, wb := range e.warm.entries {
					found = found || wb.op == spec.op && wb.sameStructure(red) && wb.prices == nil
				}
				if !found {
					t.Fatalf("round %d term %d: no stripped basis retained", round, term)
				}
			}
		}
		got, err := e.Distance(ctx, query, tracked)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := unoptimizedDistance(g, query, tracked, DefaultOptions())
		if err != nil {
			t.Fatalf("round %d reference: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d diverged: %+v vs %+v", round, got, want)
		}
		// Strip every basis, as budget pressure strips older ones.
		for _, wb := range e.warm.entries {
			e.warm.strip(wb)
		}
	}
}

// TestWarmRingStripsBeforeDropping runs 17 tracked pairs through a
// 64 KiB ring: the tracked reference state advances every step and
// two fixed queries take turns against it, so each term transplants
// from and stores into a ring that fills past its budget. Clustered
// banks keep each basis's data small against its structure (whose user
// lists hold every bank member), the shape on which a ring that split
// its budget 3:1 between data and structures dropped whole entries
// without ever stripping one. With one budget, the ring must strip the
// data of at least one basis it keeps and stay within the budget, and
// every result must match a cold engine's bit for bit.
func TestWarmRingStripsBeforeDropping(t *testing.T) {
	g := engineTestGraph(200, 95)
	rng := rand.New(rand.NewSource(96))
	states := engineTestStates(g.N(), 18, 6, 97)
	queries := []opinion.State{perturb(states[0], 40, rng), perturb(states[0], 40, rng)}
	ctx := context.Background()
	opts := engineTestOptions(g)[1]
	we := NewEngine(g, opts, EngineConfig{Workers: 1, WarmCacheBytes: 64 << 10})
	ce := NewEngine(g, opts, EngineConfig{Workers: 1, WarmCacheBytes: -1})
	for i := 0; i+1 < len(states); i++ {
		var changed []int32
		for u := range states[i] {
			if states[i][u] != states[i+1][u] {
				changed = append(changed, int32(u))
			}
		}
		we.AdvanceRef(states[i], states[i+1], changed)
		q := queries[i%2]
		got, err := we.Distance(ctx, q, states[i+1])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		want, err := ce.Distance(ctx, q, states[i+1])
		if err != nil {
			t.Fatalf("pair %d cold: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d diverged from cold:\n%+v\n%+v", i, got, want)
		}
	}
	stripped, bytes := 0, int64(0)
	for _, wb := range we.warm.entries {
		if wb.prices == nil {
			stripped++
		}
		bytes += wb.dataBytes() + wb.structBytes()
	}
	if stripped == 0 {
		t.Fatalf("no basis stripped among %d entries holding %d bytes", len(we.warm.entries), bytes)
	}
	if bytes != we.warm.bytes || bytes > we.warm.budget {
		t.Fatalf("ring holds %d bytes, accounts %d, budget %d", bytes, we.warm.bytes, we.warm.budget)
	}
	if s := we.Stats(); s.TermsWarmSolved == 0 {
		t.Fatalf("no term solved warm: %+v", s)
	}
}

// TestMatrixValidatesDuplicateInvalidStates pins that the deduplicating
// Matrix rejects invalid input exactly like the unscreened path, even
// when every state collapses to one representative.
func TestMatrixValidatesDuplicateInvalidStates(t *testing.T) {
	g := engineTestGraph(60, 93)
	bad := make(opinion.State, g.N())
	bad[3] = 7 // invalid opinion value
	states := []opinion.State{bad, append(opinion.State(nil), bad...)}
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	if _, err := e.Matrix(context.Background(), states); err == nil {
		t.Fatal("invalid duplicate states accepted")
	}
}

// TestWarmStartCostScaledBasis drives a transplant whose donor was
// solved cold by cost-scaling: both positive terms reduce to 602-node
// bipartite instances that coldSSP sends to cost-scaling, so the first
// pair retains bases with cost-scaling's potentials, and the second
// pair — one consumer swapped for another — transplants them. Each pair
// is its own batch: the bases outlive the batch (and its worker's
// scratch arena) in the engine's ring. Results are pinned bit-identical
// to a cold engine, and the transplanted pair to the dense oracle.
func TestWarmStartCostScaledBasis(t *testing.T) {
	const n, k = 700, 301
	g := engineTestGraph(n, 77)
	a, b := opinion.NewState(n), opinion.NewState(n)
	for i := 0; i < k; i++ {
		a[i] = opinion.Positive
		b[k+i] = opinion.Positive
	}
	b2 := b.Clone()
	b2[2*k-1], b2[2*k] = opinion.Neutral, opinion.Positive
	for _, spec := range eqSpecs(a, b2) {
		red := reduce(spec, nil, n)
		nodes := len(red.S) + len(red.C) + len(red.banks)
		if nodes > 0 && (coldSSP(red) || !bipartiteRoute(red, n)) {
			t.Fatalf("%s term: %d reduced nodes, want a bipartite instance solved cold by cost-scaling", spec.op, nodes)
		}
	}

	ctx := context.Background()
	we := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	defer we.Close()
	ce := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1, WarmCacheBytes: -1})
	defer ce.Close()
	pairs := []StatePair{{A: a, B: b}, {A: a, B: b2}}
	var got []Result
	for _, p := range pairs {
		res, err := we.Pairs(ctx, []StatePair{p})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res...)
	}
	if s := we.Stats(); s.TermsWarmSolved == 0 {
		t.Fatalf("second pair never transplanted a basis: %+v", s)
	}
	for i, p := range pairs {
		want, err := ce.Distance(ctx, p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("pair %d: warm %+v != cold %+v", i, got[i], want)
		}
	}
	dense, err := distanceVia(g, a, b2, DefaultOptions(), viaDense)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1].SND-dense.SND) > 1e-9*math.Max(1, dense.SND) {
		t.Errorf("transplanted pair: %v != dense %v", got[1].SND, dense.SND)
	}
}

// TestDiscardedTransplantCountsAsColdSolve pins the warm-solve counter
// to the solve that actually ran. A donor whose potentials make every
// arc's reduced cost negative is junk to SolveSSPWarm's repair: the
// term is then solved cold and counts in FlowSolves, not in
// TermsWarmSolved. The same donor with its own optimal potentials
// drains warm. Both return the cold value.
func TestDiscardedTransplantCountsAsColdSolve(t *testing.T) {
	g := engineTestGraph(150, 81)
	rng := rand.New(rand.NewSource(82))
	a := randState(g.N(), 0.3, rng)
	b := perturb(a, 30, rng)
	o := DefaultOptions().withDefaults()
	spec := eqSpec(a, b, 0)
	red := reduce(spec, nil, g.N())
	if len(red.S) < 2 || len(red.C) < 1 {
		t.Fatalf("instance too small to make a junk basis: %d suppliers, %d consumers", len(red.S), len(red.C))
	}
	ctx := context.Background()
	bp0, donorNw, cold, err := solvedInstance(ctx, g, spec, red, o)
	if err != nil {
		t.Fatal(err)
	}
	donor := newWarmBasis(hashKey{}, spec.op, bp0, donorNw, cold.val)
	solve := func() (termVal, *engineStats) {
		stats := &engineStats{}
		tc := termCtx{ctx: ctx, sc: &scratch{}, stats: stats}
		tc.sc.markInstance(g.N(), red)
		bp := newBipartite(red, o.Gamma, bp0.inf)
		if err := tc.fanOut(g, spec, o, &bp); err != nil {
			t.Fatal(err)
		}
		tv, _, err := tc.flowSolve(&bp, donor)
		if err != nil {
			t.Fatal(err)
		}
		return tv, stats
	}

	tv, stats := solve()
	if tv.val != cold.val || stats.termsWarmSolved.Load() != 1 || stats.flowSolves.Load() != 0 {
		t.Fatalf("optimal donor: value %v (cold %v), warm solves %d, cold solves %d; want a warm solve",
			tv.val, cold.val, stats.termsWarmSolved.Load(), stats.flowSolves.Load())
	}

	nSup, nDem := bp0.shape()
	for v := 0; v < nDem; v++ {
		donor.prices[nSup+v] = 1 << 40
	}
	for u := 0; u < nSup; u++ {
		donor.prices[u] = 0
	}
	tv, stats = solve()
	if tv.val != cold.val || stats.termsWarmSolved.Load() != 0 || stats.flowSolves.Load() != 1 {
		t.Fatalf("junk donor: value %v (cold %v), warm solves %d, cold solves %d; want the discarded basis counted as a cold solve",
			tv.val, cold.val, stats.termsWarmSolved.Load(), stats.flowSolves.Load())
	}
}
