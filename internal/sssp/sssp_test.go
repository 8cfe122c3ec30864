package sssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snd/internal/graph"
)

// Dijkstra is DijkstraInto into a fresh Result.
func Dijkstra(g *graph.Digraph, w []int32, src int, maxCost int64) Result {
	var res Result
	DijkstraInto(g, w, src, maxCost, &res)
	return res
}

// pins lists the queue choices of a Frontier: the cost rule, then each
// queue pinned.
var pins = []queueKind{queueByCost, queueBinary, queueDial, queueRadix}

func (k queueKind) String() string {
	return [...]string{"bycost", "binary", "dial", "radix"}[k]
}

// BellmanFord computes shortest paths from src by edge relaxation
// rounds: the queue-free oracle every search of this package is
// checked against.
func BellmanFord(g *graph.Digraph, w []int32, src int) Result {
	n := g.N()
	res := Result{Dist: make([]int64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			du := res.Dist[u]
			if du == Unreachable {
				continue
			}
			lo, hi := g.EdgeRange(u)
			for e := lo; e < hi; e++ {
				v := g.Head(e)
				if nd := du + int64(w[e]); nd < res.Dist[v] {
					res.Dist[v] = nd
					res.Parent[v] = int32(u)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return res
}

func randWeights(g *graph.Digraph, maxCost int32, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int32, g.M())
	for i := range w {
		w[i] = rng.Int31n(maxCost) + 1
	}
	return w
}

func TestDijkstraLine(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, weights 2, 3, 4.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	w := []int32{2, 3, 4}
	res := Dijkstra(g, w, 0, 4)
	want := []int64{0, 2, 5, 9}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, res.Dist[v], d)
		}
	}
	if res.Parent[3] != 2 || res.Parent[0] != -1 {
		t.Errorf("parents = %v", res.Parent)
	}
	// Node 0 unreachable from 3.
	res = Dijkstra(g, w, 3, 4)
	if res.Dist[0] != Unreachable {
		t.Errorf("dist from 3 to 0 = %d, want Unreachable", res.Dist[0])
	}
}

func TestDijkstraShortcut(t *testing.T) {
	// Direct edge is costlier than the two-hop path.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2) // cost 10
	b.AddEdge(0, 1) // cost 1
	b.AddEdge(1, 2) // cost 1
	g := b.Build()
	w := make([]int32, g.M())
	w[g.EdgeIndex(0, 2)] = 10
	w[g.EdgeIndex(0, 1)] = 1
	w[g.EdgeIndex(1, 2)] = 1
	res := Dijkstra(g, w, 0, 10)
	if res.Dist[2] != 2 {
		t.Errorf("dist[2] = %d, want 2", res.Dist[2])
	}
	if res.Parent[2] != 1 {
		t.Errorf("parent[2] = %d, want 1", res.Parent[2])
	}
}

func TestDijkstraHeapsAgreeWithBellmanFord(t *testing.T) {
	const maxCost = 20
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		g := graph.ErdosRenyi(120, 700, seed)
		w := randWeights(g, maxCost, seed+100)
		oracle := BellmanFord(g, w, 0)
		for _, pin := range pins {
			var res Result
			DijkstraFrontierInto(g, w, 0, maxCost, &res, &Frontier{pin: pin})
			for v := range oracle.Dist {
				if res.Dist[v] != oracle.Dist[v] {
					t.Fatalf("seed %d queue %v: dist[%d] = %d, oracle %d",
						seed, pin, v, res.Dist[v], oracle.Dist[v])
				}
			}
		}
	}
}

func TestDijkstraPanics(t *testing.T) {
	g := graph.Ring(4)
	t.Run("badWeights", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		Dijkstra(g, make([]int32, 2), 0, 1)
	})
	t.Run("badSource", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		Dijkstra(g, make([]int32, g.M()), 9, 1)
	})
}

func TestJohnsonMatchesDijkstra(t *testing.T) {
	g := graph.ErdosRenyi(40, 250, 9)
	w := randWeights(g, 15, 10)
	d := Johnson(g, w, 15)
	for _, u := range []int{0, 7, 23, 39} {
		res := Dijkstra(g, w, u, 15)
		for v := 0; v < g.N(); v++ {
			if d[u][v] != res.Dist[v] {
				t.Fatalf("Johnson[%d][%d] = %d, Dijkstra %d", u, v, d[u][v], res.Dist[v])
			}
		}
	}
}

// TestReverseDistances: dist_g(u, v) == dist_rev(v, u), the identity the
// Theorem 4 pipeline relies on when the banks sit on the supplier side.
func TestReverseDistances(t *testing.T) {
	g := graph.ErdosRenyi(60, 400, 21)
	w := randWeights(g, 9, 22)
	rev := g.Reverse()
	rw := graph.PermuteToReverse(g, w)
	for _, u := range []int{0, 5, 17} {
		fwd := Dijkstra(g, w, u, 9)
		for v := 0; v < g.N(); v++ {
			back := Dijkstra(rev, rw, v, 9)
			if fwd.Dist[v] != back.Dist[u] {
				t.Fatalf("dist(%d,%d): fwd %d != rev %d", u, v, fwd.Dist[v], back.Dist[u])
			}
		}
	}
}

// TestQuickTriangleInequality: shortest-path distances form a
// (semi)metric: d(u,w) <= d(u,v) + d(v,w) whenever the right side is
// finite — the property Lemma 2 needs from the ground distance.
func TestQuickTriangleInequality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(30, 150, seed)
		w := randWeights(g, 12, seed+1)
		d := Johnson(g, w, 12)
		for trial := 0; trial < 50; trial++ {
			u, v, x := rng.Intn(30), rng.Intn(30), rng.Intn(30)
			if d[u][v] == Unreachable || d[v][x] == Unreachable {
				continue
			}
			if d[u][x] > d[u][v]+d[v][x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParentTreeConsistent(t *testing.T) {
	g := graph.ErdosRenyi(80, 500, 33)
	w := randWeights(g, 7, 34)
	res := Dijkstra(g, w, 0, 7)
	for v := 0; v < g.N(); v++ {
		p := res.Parent[v]
		if p < 0 {
			continue
		}
		e := g.EdgeIndex(int(p), v)
		if e < 0 {
			t.Fatalf("parent edge %d->%d not in graph", p, v)
		}
		if res.Dist[v] != res.Dist[p]+int64(w[e]) {
			t.Fatalf("tree edge %d->%d: dist %d != %d + %d", p, v, res.Dist[v], res.Dist[p], w[e])
		}
	}
}

// benchDijkstra times one full run per iteration with a fresh frontier
// pinned to one queue, so the queue's allocation is charged per run.
func benchDijkstra(b *testing.B, pin queueKind) {
	g := graph.ScaleFree(graph.ScaleFreeConfig{N: 20000, OutDeg: 8, Exponent: -2.3, Seed: 1})
	w := randWeights(g, 16, 2)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DijkstraFrontierInto(g, w, i%g.N(), 16, &res, &Frontier{pin: pin})
	}
}

func BenchmarkDijkstraBinary(b *testing.B) { benchDijkstra(b, queueBinary) }
func BenchmarkDijkstraDial(b *testing.B)   { benchDijkstra(b, queueDial) }
func BenchmarkDijkstraRadix(b *testing.B)  { benchDijkstra(b, queueRadix) }
