package sssp

import (
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/pqueue"
)

// TestDijkstraGoalsLine pins the basics on a hand-checkable graph:
// exact distances on targets, Unreachable for disconnected ones, src
// as its own target, and duplicate targets.
func TestDijkstraGoalsLine(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, weights 2, 3, 4; node 4 isolated.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	w := []int32{2, 3, 4}
	targets := []int32{3, 0, 1, 4, 1}
	got := DijkstraGoals(g, w, []int32{0}, targets, pqueue.KindBinary, 4, Unreachable)
	want := []int64{9, 0, 2, Unreachable, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("goal %d (node %d): dist = %d, want %d", i, targets[i], got[i], want[i])
		}
	}
}

// TestDijkstraGoalsColumns pins grouped columns on a hand-checkable
// graph: a column reports its nearest target, a user may sit in two
// columns, and an empty or unreachable column reports Unreachable.
func TestDijkstraGoalsColumns(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, weights 2, 3, 4; node 4 isolated.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	w := []int32{2, 3, 4}
	targets := []int32{3, 2, 2, 1, 4, 3}
	cols := []int32{0, 0, 1, 1, 3, 1}
	out := make([]int64, 4)
	DijkstraGoalsInto(g, w, []int32{0}, targets, cols, 0, pqueue.KindBinary, 4, Unreachable, out, nil)
	want := []int64{5, 2, Unreachable, Unreachable}
	for c := range want {
		if out[c] != want[c] {
			t.Errorf("column %d: dist = %d, want %d", c, out[c], want[c])
		}
	}
}

// TestDijkstraGoalsSourceSet pins multi-source runs on a hand-checkable
// graph: every source starts at 0, so a source that is also a target
// reports 0, repeated sources count once, a column reports its nearest
// target from its nearest source, and an empty source set reaches
// nothing.
func TestDijkstraGoalsSourceSet(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with weights 2, 3, 4, and 4 -> 3 with weight 1;
	// node 5 isolated.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 3)
	g := b.Build()
	w := []int32{2, 3, 4, 1}
	const U = Unreachable
	for _, tc := range []struct {
		name          string
		srcs, targets []int32
		cols          []int32
		cutoff        int64
		want          []int64
	}{
		{"repeated source is a target", []int32{0, 0}, []int32{0, 3}, nil, U, []int64{0, 9}},
		{"nearest source wins", []int32{0, 4}, []int32{3, 1, 4, 5}, nil, U, []int64{1, 2, 0, U}},
		{"repeats among sources", []int32{2, 4, 2}, []int32{3, 2, 0}, nil, U, []int64{1, 0, U}},
		{"grouped columns", []int32{1, 4}, []int32{0, 4, 3, 2}, []int32{0, 0, 1, 1}, U, []int64{0, 1}},
		{"cutoff", []int32{0, 4}, []int32{2, 3}, nil, 2, []int64{U, 1}},
		{"no source", nil, []int32{0, 3}, nil, U, []int64{U, U}},
	} {
		gs := &GoalsScratch{}
		out := make([]int64, len(tc.want))
		for _, kind := range []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial} {
			DijkstraGoalsInto(g, w, tc.srcs, tc.targets, tc.cols, 0, kind, 4, tc.cutoff, out, gs)
			for c := range tc.want {
				if out[c] != tc.want[c] {
					t.Errorf("%s (%v): column %d = %d, want %d", tc.name, kind, c, out[c], tc.want[c])
				}
			}
		}
	}
}

// TestDijkstraGoalsMatchesFull is the exactness property the pruned
// fan-out rests on, in the one-column-per-target case (cols nil): over
// randomized graphs, weights, sources, and target sets (including
// unreachable and duplicate targets), DijkstraGoals equals the full
// DijkstraInto row on every queried column, for every queue kind and
// with a scratch reused across all runs. FuzzDijkstraGoals covers
// grouped columns.
func TestDijkstraGoalsMatchesFull(t *testing.T) {
	const (
		seeds   = 200
		maxCost = 20
	)
	kinds := []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix, pqueue.KindAuto}
	gs := &GoalsScratch{} // shared across every run: each must reset what it touched
	var full Result
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(80)
		m := rng.Intn(6 * n)
		g := graph.ErdosRenyi(n, m, seed+1000)
		w := randWeights(g, maxCost, seed+2000)
		src := rng.Intn(n)
		targets := make([]int32, 1+rng.Intn(2*n))
		for i := range targets {
			targets[i] = int32(rng.Intn(n))
		}
		if rng.Intn(2) == 0 {
			targets[0] = int32(src)
		}
		kind := kinds[rng.Intn(len(kinds))]
		DijkstraInto(g, w, src, kind, maxCost, &full)
		out := make([]int64, len(targets))
		DijkstraGoalsInto(g, w, []int32{int32(src)}, targets, nil, 0, kind, maxCost, Unreachable, out, gs)
		for i, tgt := range targets {
			if out[i] != full.Dist[tgt] {
				t.Fatalf("seed %d kind %v: goal %d (node %d): pruned %d, full %d",
					seed, kind, i, tgt, out[i], full.Dist[tgt])
			}
		}
	}
}

// TestDijkstraGoalsCutoff pins the cutoff contract: targets at
// distance <= cutoff report their exact full-row distance, everything
// beyond reports Unreachable.
func TestDijkstraGoalsCutoff(t *testing.T) {
	const maxCost = 10
	var full Result
	gs := &GoalsScratch{}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		g := graph.ErdosRenyi(n, 4*n, seed+300)
		w := randWeights(g, maxCost, seed+400)
		src := rng.Intn(n)
		cutoff := int64(1 + rng.Intn(3*maxCost))
		targets := make([]int32, n)
		for i := range targets {
			targets[i] = int32(i)
		}
		DijkstraInto(g, w, src, pqueue.KindDial, maxCost, &full)
		out := make([]int64, len(targets))
		DijkstraGoalsInto(g, w, []int32{int32(src)}, targets, nil, 0, pqueue.KindDial, maxCost, cutoff, out, gs)
		for v := range targets {
			want := full.Dist[v]
			if want > cutoff {
				want = Unreachable
			}
			if out[v] != want {
				t.Fatalf("seed %d cutoff %d: node %d: pruned %d, want %d (full %d)",
					seed, cutoff, v, out[v], want, full.Dist[v])
			}
		}
	}
}

// TestDijkstraGoalsEmptyTargets: no targets means no work and no
// output, with the scratch left reusable.
func TestDijkstraGoalsEmptyTargets(t *testing.T) {
	g := graph.ErdosRenyi(20, 60, 9)
	w := randWeights(g, 5, 10)
	gs := &GoalsScratch{}
	DijkstraGoalsInto(g, w, []int32{0}, nil, nil, 0, pqueue.KindDial, 5, Unreachable, nil, gs)
	out := DijkstraGoals(g, w, []int32{0}, []int32{0}, pqueue.KindDial, 5, Unreachable)
	if out[0] != 0 {
		t.Fatalf("dist to self = %d, want 0", out[0])
	}
}

// TestFrontierDijkstraMatches pins that the pooled-frontier Dijkstra and
// the allocating one agree for every kind, with the frontier reused
// across kinds and graphs (queue state must fully reset).
func TestFrontierDijkstraMatches(t *testing.T) {
	const maxCost = 15
	var fr Frontier
	var a, b Result
	for seed := int64(0); seed < 40; seed++ {
		g := graph.ErdosRenyi(60, 300, seed)
		w := randWeights(g, maxCost, seed+50)
		for _, kind := range []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix, pqueue.KindAuto} {
			DijkstraInto(g, w, 3, kind, maxCost, &a)
			DijkstraFrontierInto(g, w, 3, kind, maxCost, &b, &fr)
			for v := range a.Dist {
				if a.Dist[v] != b.Dist[v] {
					t.Fatalf("seed %d kind %v: dist[%d] = %d vs %d", seed, kind, v, a.Dist[v], b.Dist[v])
				}
			}
		}
	}
}
