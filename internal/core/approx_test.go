package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/cluster"
	"snd/internal/graph"
	"snd/internal/opinion"
)

// TestApproxCertification is the 200-seed certification suite: for
// random graphs, state series, cluster configurations, and budgets,
// every returned distance must satisfy LB <= SND <= UB and
// UB - LB <= Epsilon, and — the real contract — the exact value must
// lie inside the reported envelope, so |SND - exact| <= Epsilon.
func TestApproxCertification(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(80)
		g := graph.ErdosRenyi(n, (3+rng.Intn(4))*n, seed)
		nStates := 3 + rng.Intn(2)
		states := make([]opinion.State, nStates)
		states[0] = randState(n, 0.3+0.4*rng.Float64(), rng)
		for i := 1; i < nStates; i++ {
			states[i] = perturb(states[i-1], 1+rng.Intn(n/3), rng)
		}
		opts := DefaultOptions()
		if rng.Intn(2) == 0 {
			opts.Clusters = cluster.BFSPartition(g, 1+rng.Intn(8))
		}
		eps := []float64{0.01, 0.1, 0.5, 2, 10}[rng.Intn(5)]

		exactEng := NewEngine(g, opts, EngineConfig{Workers: 1})
		exact, err := exactEng.SeriesEps(context.Background(), states, 0)
		exactEng.Close()
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}

		workers := 1 + rng.Intn(3)
		eng := NewEngine(g, opts, EngineConfig{Workers: workers})
		got, err := eng.SeriesEps(context.Background(), states, eps)
		eng.Close()
		if err != nil {
			t.Fatalf("seed %d: approx: %v", seed, err)
		}
		for i, r := range got {
			if !(r.LB <= r.SND && r.SND <= r.UB) {
				t.Fatalf("seed %d pair %d: SND %v outside own envelope [%v, %v]",
					seed, i, r.SND, r.LB, r.UB)
			}
			if r.UB-r.LB > eps {
				t.Fatalf("seed %d pair %d: envelope width %v exceeds eps %v",
					seed, i, r.UB-r.LB, eps)
			}
			ex := exact[i].SND
			slack := 1e-9 * (1 + ex)
			if r.LB > ex+slack || r.UB < ex-slack {
				t.Fatalf("seed %d pair %d: exact %v outside envelope [%v, %v]",
					seed, i, ex, r.LB, r.UB)
			}
			if math.Abs(r.SND-ex) > eps+slack {
				t.Fatalf("seed %d pair %d: |approx %v - exact %v| exceeds eps %v",
					seed, i, r.SND, ex, eps)
			}
		}
	}
}

// TestApproxSinkhornStage drives instances dense enough to cross the
// entropic stage's entry gate (every user flips, singleton banks) and
// checks the certification contract there too.
func TestApproxSinkhornStage(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 160
		g := graph.ErdosRenyi(n, 6*n, 1000+seed)
		a := opinion.NewState(n)
		b := opinion.NewState(n)
		for i := 0; i < n; i++ {
			// Heavy flip traffic: most users positive in a, negative in b.
			switch rng.Intn(4) {
			case 0, 1:
				a[i] = opinion.Positive
				b[i] = opinion.Negative
			case 2:
				a[i] = opinion.Negative
				b[i] = opinion.Positive
			}
		}
		opts := DefaultOptions()
		eng := NewEngine(g, opts, EngineConfig{Workers: 2})
		exact, err := eng.DistanceEps(context.Background(), a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 50.0
		got, err := eng.DistanceEps(context.Background(), a, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if !(got.LB <= got.SND && got.SND <= got.UB && got.UB-got.LB <= eps) {
			t.Fatalf("seed %d: bad envelope [%v, %v] around %v", seed, got.LB, got.UB, got.SND)
		}
		slack := 1e-9 * (1 + exact.SND)
		if got.LB > exact.SND+slack || got.UB < exact.SND-slack {
			t.Fatalf("seed %d: exact %v outside envelope [%v, %v]", seed, exact.SND, got.LB, got.UB)
		}
	}
}

// TestEpsilonZeroBitIdentical pins the approximation tier's off switch:
// an Epsilon-0 batch is bit-identical to the exact engine across worker
// counts, and exact results carry the degenerate envelope LB == UB ==
// SND.
func TestEpsilonZeroBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 80
	g := graph.ErdosRenyi(n, 5*n, 42)
	states := make([]opinion.State, 6)
	states[0] = randState(n, 0.5, rng)
	for i := 1; i < len(states); i++ {
		states[i] = perturb(states[i-1], 1+rng.Intn(12), rng)
	}
	var ref []Result
	for _, workers := range []int{1, 2, 4} {
		eng := NewEngine(g, DefaultOptions(), EngineConfig{Workers: workers})
		got, err := eng.SeriesEps(context.Background(), states, 0)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := eng.Series(context.Background(), states)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if math.Float64bits(r.SND) != math.Float64bits(plain[i]) {
				t.Fatalf("workers %d pair %d: SeriesEps(0) %v != Series %v", workers, i, r.SND, plain[i])
			}
			if math.Float64bits(r.LB) != math.Float64bits(r.SND) || math.Float64bits(r.UB) != math.Float64bits(r.SND) {
				t.Fatalf("workers %d pair %d: exact envelope not degenerate: [%v, %v] around %v",
					workers, i, r.LB, r.UB, r.SND)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i].SND) != math.Float64bits(ref[i].SND) {
				t.Fatalf("workers %d pair %d: %v != workers-1 value %v", workers, i, got[i].SND, ref[i].SND)
			}
		}
	}
}

// TestApproxColumnFanOutOneSided drives the column fan-out of budgeted
// terms on its home turf: an activation-only pair (b adds newly active
// users to a) makes every term one-sided, so each term's sources far
// outnumber its handful of cluster-bank columns. An exact Pairs call
// retains its rows and so fills them by source, complete; a budgeted
// one takes the column side anyway (see byColumns), and the counters
// must attribute its gate decisions to rows filled by column. The
// decided envelope must certify the exact value, both calls charge one
// SSSP run per source, and a budget too tight to certify must refine
// down to a value within that tight budget.
func TestApproxColumnFanOutOneSided(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 500
	g := graph.ErdosRenyi(n, 6*n, 11)
	a := randState(n, 0.3, rng)
	b := append(opinion.State(nil), a...)
	for flipped := 0; flipped < 160; {
		u := rng.Intn(n)
		if b[u] != opinion.Neutral {
			continue
		}
		if flipped%2 == 0 {
			b[u] = opinion.Positive
		} else {
			b[u] = opinion.Negative
		}
		flipped++
	}
	opts := DefaultOptions()
	opts.Clusters = cluster.BFSPartition(g, 8)

	exactEng := NewEngine(g, opts, EngineConfig{Workers: 1})
	exact, err := exactEng.Distance(context.Background(), a, b)
	exactStats := exactEng.Stats()
	exactEng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if exactStats.TermsCompleteRows == 0 || exactStats.TermsByColumn != 0 {
		t.Fatalf("exact Pairs should retain complete rows: %+v", exactStats)
	}

	const eps = 50.0
	eng := NewEngine(g, opts, EngineConfig{Workers: 2})
	res, err := eng.DistanceEps(context.Background(), a, b, eps)
	stats := eng.Stats()
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TermsByColumn == 0 {
		t.Fatalf("budgeted PairsEps filled no term by column: %+v", stats)
	}
	if stats.TermsApproxCoarse == 0 {
		t.Fatalf("no gate decision over rows filled by column at a generous budget: %+v", stats)
	}
	if res.UB-res.LB > eps {
		t.Fatalf("envelope width %v exceeds eps %v", res.UB-res.LB, eps)
	}
	slack := 1e-9 * (1 + exact.SND)
	if res.LB > exact.SND+slack || res.UB < exact.SND-slack {
		t.Fatalf("exact %v outside envelope [%v, %v]", exact.SND, res.LB, res.UB)
	}
	if res.SSSPRuns != exact.SSSPRuns {
		t.Fatalf("column fan-out charged %d SSSP runs, exact charged %d",
			res.SSSPRuns, exact.SSSPRuns)
	}

	// A budget too tight for the bound envelope forces the refinement
	// chain; whether it lands on the flow solve (exact value) or a
	// sharper envelope, the certified |SND - exact| <= eps contract
	// must hold at this tightness too.
	const tightEps = 0.1
	eng2 := NewEngine(g, opts, EngineConfig{Workers: 1})
	tight, err := eng2.DistanceEps(context.Background(), a, b, tightEps)
	eng2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tight.SND-exact.SND) > tightEps+slack {
		t.Fatalf("tight budget: |%v - %v| exceeds eps %v", tight.SND, exact.SND, tightEps)
	}
	if tight.LB > exact.SND+slack || tight.UB < exact.SND-slack {
		t.Fatalf("tight budget: exact %v outside envelope [%v, %v]",
			exact.SND, tight.LB, tight.UB)
	}
}

// TestApproxStatsAndValidation covers the counter wiring and the
// epsilon guards.
func TestApproxStatsAndValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	g := graph.ErdosRenyi(n, 5*n, 7)
	a := randState(n, 0.5, rng)
	b := perturb(a, 20, rng)
	eng := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	defer eng.Close()
	if _, err := eng.PairsEps(context.Background(), []StatePair{{A: a, B: b}}, -1); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("negative epsilon: got %v", err)
	}
	if _, err := eng.PairsEps(context.Background(), []StatePair{{A: a, B: b}}, math.NaN()); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("NaN epsilon: got %v", err)
	}
	if _, _, err := eng.MatrixEps(context.Background(), []opinion.State{a, b}, -2); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("matrix negative epsilon: got %v", err)
	}
	if _, err := eng.DistanceEps(context.Background(), a, b, 0); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.TermsApproxCoarse+s.TermsApproxGap+s.TermsApproxSinkhorn != 0 {
		t.Fatalf("exact run recorded approx solves: %+v", s)
	}
	// A fresh pair, though (a, b) would decide alike: budgeted terms
	// skip the warm ring the exact run filled.
	c := perturb(b, 20, rng)
	if _, err := eng.DistanceEps(context.Background(), b, c, 100); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.TermsApproxCoarse+s.TermsApproxGap+s.TermsApproxSinkhorn == 0 {
		t.Fatal("generous budget decided no term approximately")
	}
	// The windowed view carries the approx counters through Sub.
	if d := s.Sub(EngineStats{}); d.TermsApproxCoarse != s.TermsApproxCoarse ||
		d.TermsApproxGap != s.TermsApproxGap || d.TermsApproxSinkhorn != s.TermsApproxSinkhorn {
		t.Fatal("Sub dropped approx counters")
	}
}

// TestApproxIgnoresEngineHistory pins that a budgeted result is a
// function of its inputs alone: a fresh engine, an engine that has just
// solved the same pair exactly (its warm ring and ground cache hold the
// pair's instances and rows), and an engine with no warm ring return
// the same Results, bit for bit.
func TestApproxIgnoresEngineHistory(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		g := graph.ErdosRenyi(n, 5*n, seed)
		a := randState(n, 0.5, rng)
		b := perturb(a, 20, rng)
		for _, eps := range []float64{5, 20, 100} {
			var got [3]Result
			for k, cfg := range []EngineConfig{{Workers: 2}, {Workers: 2}, {Workers: 2, WarmCacheBytes: -1}} {
				eng := NewEngine(g, DefaultOptions(), cfg)
				if k == 1 {
					if _, err := eng.Distance(ctx, a, b); err != nil {
						t.Fatal(err)
					}
				}
				r, err := eng.DistanceEps(ctx, a, b, eps)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				got[k] = r
			}
			if !reflect.DeepEqual(got[1], got[0]) {
				t.Fatalf("seed %d eps %v: after an exact Distance %+v, fresh %+v", seed, eps, got[1], got[0])
			}
			if !reflect.DeepEqual(got[2], got[0]) {
				t.Fatalf("seed %d eps %v: without a warm ring %+v, fresh %+v", seed, eps, got[2], got[0])
			}
		}
	}
}

// TestApproxHugeBudgetSaturates pins the scaled term budget's
// saturation: every budget validEps accepts, up to 1e300, decides the
// terms as a budget that already admits every envelope does, instead of
// overflowing into a negative budget that solves them exactly.
func TestApproxHugeBudgetSaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	g := graph.ErdosRenyi(n, 5*n, 7)
	a := randState(n, 0.5, rng)
	b := perturb(a, 20, rng)
	run := func(eps float64) (Result, [5]int64) {
		eng := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
		defer eng.Close()
		r, err := eng.DistanceEps(context.Background(), a, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		return r, [5]int64{s.TermsBoundDecided, s.TermsApproxCoarse, s.TermsApproxGap, s.TermsApproxSinkhorn, s.FlowSolves}
	}
	want, wantCounts := run(1e6)
	if wantCounts[4] != 0 {
		t.Fatalf("eps 1e6 ran %d flow solves", wantCounts[4])
	}
	for _, eps := range []float64{1e17, 1e300} {
		got, counts := run(eps)
		if counts != wantCounts {
			t.Fatalf("eps %v: bound/coarse/gap/sinkhorn/flow counts %v, eps 1e6 %v", eps, counts, wantCounts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("eps %v: %+v, eps 1e6 %+v", eps, got, want)
		}
	}
}

// TestApproxMatrixGap checks MatrixEps's achieved-gap report and its
// eps-0 equivalence with Matrix.
func TestApproxMatrixGap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	g := graph.ErdosRenyi(n, 5*n, 9)
	states := []opinion.State{randState(n, 0.5, rng)}
	for i := 1; i < 4; i++ {
		states = append(states, perturb(states[i-1], 8, rng))
	}
	eng := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	defer eng.Close()
	exact, err := eng.Matrix(context.Background(), states)
	if err != nil {
		t.Fatal(err)
	}
	m0, gap0, err := eng.MatrixEps(context.Background(), states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gap0 != 0 {
		t.Fatalf("exact matrix reported gap %v", gap0)
	}
	for i := range exact {
		for j := range exact[i] {
			if math.Float64bits(exact[i][j]) != math.Float64bits(m0[i][j]) {
				t.Fatalf("MatrixEps(0) diverged at (%d,%d)", i, j)
			}
		}
	}
	const eps = 5.0
	m, gap, err := eng.MatrixEps(context.Background(), states, eps)
	if err != nil {
		t.Fatal(err)
	}
	if gap > eps {
		t.Fatalf("achieved gap %v exceeds eps %v", gap, eps)
	}
	for i := range exact {
		for j := range exact[i] {
			if math.Abs(m[i][j]-exact[i][j]) > eps+1e-9 {
				t.Fatalf("matrix entry (%d,%d): |%v - %v| exceeds eps", i, j, m[i][j], exact[i][j])
			}
		}
	}
}
