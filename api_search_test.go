package snd

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// TestStateIndexWithSND exercises the Section 9 metric-space
// applications through the public API: indexing a state series under
// SND, nearest-neighbor search, classification, and clustering.
func TestStateIndexWithSND(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 200, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.4, Seed: 1})
	// Two families of volume-matched states: + blobs around user group
	// A (users 0..), - blobs around group B (users 100..). Matching the
	// active-user counts keeps the mass-mismatch penalty out of the
	// comparison, so location is the only signal.
	mk := func(seed int64, op Opinion) State {
		st := NewState(g.N())
		base := 0
		if op == Negative {
			base = 100
		}
		// A fixed 8-user core per family plus 4 seed-varied users:
		// within-family distances stay small (move ~4 units) while
		// cross-family comparisons must drain and recreate everything.
		for i := 0; i < 8; i++ {
			st[base+i] = op
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			st[base+8+rng.Intn(50)] = op
		}
		return st
	}
	var states []State
	for i := 0; i < 4; i++ {
		states = append(states, mk(int64(10+i), Positive))
	}
	for i := 0; i < 4; i++ {
		states = append(states, mk(int64(20+i), Negative))
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}

	// Metric-space applications want a large bank distance: with the
	// default gamma=1, vanishing mass into a local bank and recreating
	// it elsewhere is cheaper than transporting it (the triangle
	// discussion in docs/ARCHITECTURE.md), which collapses cross-family
	// contrast.
	// gamma of the order of the ground-distance diameter restores it.
	opts := DefaultOptions()
	opts.Gamma = 24
	ix := NewStateIndex(states, openNetwork(t, g, opts).Measure())
	if ix.Len() != 8 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// A fresh +-family state should classify as label 0.
	query := states[1].Clone()
	query[20] = Positive
	got, err := ix.Classify(context.Background(), query, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Classify = %d, want 0", got)
	}
	nn, err := ix.NearestNeighbors(context.Background(), query, 2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[nn[0].Index] != 0 {
		t.Errorf("nearest neighbor is from the wrong family: %+v", nn[0])
	}
	// k-medoids with k=2 should split the families.
	res, err := ix.KMedoids(context.Background(), 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if res.Assign[i] != res.Assign[0] || res.Assign[4+i] != res.Assign[4] {
			t.Fatalf("family split: %v", res.Assign)
		}
	}
	if res.Assign[0] == res.Assign[4] {
		t.Errorf("families merged: %v", res.Assign)
	}
}

func TestICCAndRandomSteps(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 120, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.5, Seed: 7})
	st := NewState(g.N())
	for i := 0; i < 10; i++ {
		st[i] = Positive
	}
	rng := rand.New(rand.NewSource(8))
	next, activated := ICCStep(g, st, 0.5, rng)
	if activated == 0 {
		t.Fatal("ICC activated nobody")
	}
	if next.ActiveCount() != 10+activated {
		t.Errorf("active count %d, want %d", next.ActiveCount(), 10+activated)
	}
	rnd, k := RandomActivationStep(g, st, activated, rng)
	if k != activated {
		t.Errorf("random step activated %d, want %d", k, activated)
	}
	if rnd.ActiveCount() != 10+activated {
		t.Errorf("random active count %d", rnd.ActiveCount())
	}
}

func TestClusterLabelFacades(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 150, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.5, Seed: 9})
	bfs := BFSClusterLabels(g, 8)
	if len(bfs) != g.N() {
		t.Fatalf("BFS labels: %d", len(bfs))
	}
	seen := map[int]bool{}
	for _, l := range bfs {
		seen[l] = true
	}
	if len(seen) != 8 {
		t.Errorf("BFS produced %d clusters, want 8", len(seen))
	}
	lp := CommunityLabels(g, 20, 10)
	if len(lp) != g.N() {
		t.Fatalf("LP labels: %d", len(lp))
	}
	// Cluster labels plug into Options.
	opts := DefaultOptions()
	opts.Clusters = bfs
	ev := NewEvolution(g, 15, 11)
	a := ev.Step(0.3, 0.02)
	b := ev.Step(0.3, 0.02)
	if _, err := freshDistance(g, a, b, opts); err != nil {
		t.Fatal(err)
	}
}

// TestScreenedSearchMatchesExhaustiveAPI pins the bounds-first public
// surface — screened NearestNeighbors and the deduplicating Matrix —
// bit-identical to brute force: Pairs over every (query, state) and
// every (i, j) pair on a handle without warm starts. A repeated scan,
// whose bounds are refined by the rows the first scan cached, must
// return the same neighbors.
func TestScreenedSearchMatchesExhaustiveAPI(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 300, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.3, Seed: 5})
	rng := rand.New(rand.NewSource(6))
	base := NewState(g.N())
	for i := range base {
		if rng.Float64() < 0.25 {
			base[i] = Opinion(1 - 2*rng.Intn(2))
		}
	}
	var states []State
	cur := base
	for i := 0; i < 8; i++ {
		cur = cur.Clone()
		for f := 0; f < 6; f++ {
			cur[rng.Intn(g.N())] = Opinion(rng.Intn(3) - 1)
		}
		states = append(states, cur)
	}
	states = append(states, states[2].Clone()) // duplicate snapshot

	exNet := NewNetwork(g, DefaultOptions(), EngineConfig{WarmCacheBytes: -1})
	defer exNet.Close()
	scNet := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer scNet.Close()

	ctx := context.Background()
	query := base.Clone()
	for f := 0; f < 10; f++ {
		query[rng.Intn(g.N())] = Opinion(rng.Intn(3) - 1)
	}
	var qPairs []StatePair
	for _, st := range states {
		qPairs = append(qPairs, StatePair{A: query, B: st})
	}
	qRes, err := exNet.Pairs(ctx, qPairs)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]StateNeighbor, len(qRes))
	for i, r := range qRes {
		all[i] = StateNeighbor{Index: i, Dist: r.SND}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	ix := scNet.Index(states)
	for _, k := range []int{1, 3} {
		want := all[:k]
		for scan := 0; scan < 2; scan++ {
			got, err := ix.NearestNeighbors(ctx, query, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("k=%d scan %d: %d neighbors", k, scan, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d scan %d neighbor %d: screened %+v != exhaustive %+v", k, scan, i, got[i], want[i])
				}
			}
		}
	}
	gotM, err := scNet.Matrix(ctx, states)
	if err != nil {
		t.Fatal(err)
	}
	for i := range states {
		if gotM[i][i] != 0 {
			t.Fatalf("matrix (%d,%d) = %v, want 0", i, i, gotM[i][i])
		}
		for j := i + 1; j < len(states); j++ {
			want, err := exNet.Pairs(ctx, []StatePair{{A: states[i], B: states[j]}})
			if err != nil {
				t.Fatal(err)
			}
			if gotM[i][j] != want[0].SND || gotM[j][i] != want[0].SND {
				t.Fatalf("matrix (%d,%d): screened %v/%v != exhaustive %v", i, j, gotM[i][j], gotM[j][i], want[0].SND)
			}
		}
	}
}
