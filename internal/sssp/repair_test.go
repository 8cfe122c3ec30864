package sssp

import (
	"math/rand"
	"testing"

	"snd/internal/graph"
)

// checkRepairChain drives one randomized delta sequence: a fresh
// Dijkstra tree, then rounds of random weight mutations repaired in
// place, each round cross-checked against a fresh Dijkstra and (on the
// first few rounds) the Bellman-Ford oracle.
func checkRepairChain(t *testing.T, g *graph.Digraph, rng *rand.Rand, rounds int) {
	t.Helper()
	const maxW = 20
	w := make([]int32, g.M())
	for i := range w {
		w[i] = rng.Int31n(maxW) + 1
	}
	src := rng.Intn(g.N())
	pin := pins[rng.Intn(len(pins))]
	var res Result
	DijkstraFrontierInto(g, w, src, maxW, &res, &Frontier{pin: pin})
	rs := &RepairScratch{fr: Frontier{pin: pin}}
	for round := 0; round < rounds; round++ {
		// Mutate a small random set of edges; occasionally list extra
		// unchanged edges (documented as harmless).
		k := rng.Intn(6) + 1
		changed := make([]int32, 0, k+2)
		seen := make(map[int32]bool)
		for i := 0; i < k; i++ {
			e := int32(rng.Intn(g.M()))
			if !seen[e] {
				seen[e] = true
				changed = append(changed, e)
				w[e] = rng.Int31n(maxW) + 1
			}
		}
		if rng.Intn(3) == 0 {
			e := int32(rng.Intn(g.M()))
			if !seen[e] {
				changed = append(changed, e) // unchanged edge in the list
			}
		}
		maxAffected := g.N() / 2
		if rng.Intn(4) == 0 {
			maxAffected = rng.Intn(4) // tiny: force the fallback path
		}
		var tails []int32
		if rng.Intn(2) == 0 { // exercise both tail-recovery paths
			tails = make([]int32, len(changed))
			for i, e := range changed {
				tails[i] = g.Tail(int(e))
			}
		}
		RepairInto(g, w, src, maxW, &res, changed, tails, maxAffected, rs)

		fresh := Dijkstra(g, w, src, maxW)
		for v := range fresh.Dist {
			if res.Dist[v] != fresh.Dist[v] {
				t.Fatalf("round %d: dist[%d] = %d, fresh Dijkstra %d",
					round, v, res.Dist[v], fresh.Dist[v])
			}
		}
		if round < 3 {
			bf := BellmanFord(g, w, src)
			for v := range bf.Dist {
				if res.Dist[v] != bf.Dist[v] {
					t.Fatalf("round %d: dist[%d] = %d, Bellman-Ford %d",
						round, v, res.Dist[v], bf.Dist[v])
				}
			}
		}
		// The repaired parent tree must stay a valid shortest-path tree:
		// every reachable non-source vertex's label is supported by its
		// parent edge. Later repairs rely on this invariant.
		for v := range res.Dist {
			if v == src || res.Dist[v] == Unreachable {
				continue
			}
			p := res.Parent[v]
			if p < 0 {
				t.Fatalf("round %d: reachable vertex %d has no parent", round, v)
			}
			e := g.EdgeIndex(int(p), v)
			if e < 0 {
				t.Fatalf("round %d: parent[%d] = %d is not an in-neighbor", round, v, p)
			}
			if res.Dist[p]+int64(w[e]) != res.Dist[v] {
				t.Fatalf("round %d: parent edge %d->%d does not support dist (%d + %d != %d)",
					round, p, v, res.Dist[p], w[e], res.Dist[v])
			}
		}
	}
}

// TestRepairIntoRandomized runs 200+ randomized delta sequences across
// graph shapes, sources, queues, and fallback pressures.
func TestRepairIntoRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	chains := 0
	for trial := 0; chains < 210; trial++ {
		n := rng.Intn(120) + 8
		m := n * (rng.Intn(5) + 1)
		g := graph.ErdosRenyi(n, min(m, n*(n-1)), int64(trial))
		if g.M() == 0 {
			continue
		}
		checkRepairChain(t, g, rng, 8)
		chains++
	}
}

// TestRepairIntoScaleFree exercises the shapes the engine actually
// sees: scale-free graphs with hub-heavy degree distributions, long
// repair chains from one source.
func TestRepairIntoScaleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 400, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.3, Seed: 7,
	})
	for trial := 0; trial < 6; trial++ {
		checkRepairChain(t, g, rng, 30)
	}
}

// TestRepairIntoNoChange: an empty changed list is a no-op that reports
// a successful repair.
func TestRepairIntoNoChange(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, 3)
	w := randWeights(g, 9, 4)
	res := Dijkstra(g, w, 0, 9)
	before := append([]int64(nil), res.Dist...)
	if !RepairInto(g, w, 0, 9, &res, nil, nil, g.N(), nil) {
		t.Error("empty repair reported fallback")
	}
	for v := range before {
		if res.Dist[v] != before[v] {
			t.Fatalf("empty repair changed dist[%d]", v)
		}
	}
}
