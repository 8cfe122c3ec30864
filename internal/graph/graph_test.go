package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(3, 0)
	b.AddEdge(0, 3)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4 (dedup + self-loop drop)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 3) || !g.HasEdge(1, 2) || !g.HasEdge(3, 0) {
		t.Error("missing expected edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(2, 2) {
		t.Error("unexpected edges present")
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	if e := g.EdgeIndex(0, 3); e < 0 || g.Head(e) != 3 {
		t.Errorf("EdgeIndex(0,3) = %d", e)
	}
	if e := g.EdgeIndex(1, 0); e != -1 {
		t.Errorf("EdgeIndex(1,0) = %d, want -1", e)
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestOutRowsSorted(t *testing.T) {
	g := ErdosRenyi(50, 400, 7)
	for u := 0; u < g.N(); u++ {
		row := g.Out(u)
		if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
			t.Fatalf("row %d not sorted: %v", u, row)
		}
	}
}

func TestReverse(t *testing.T) {
	g := ErdosRenyi(40, 300, 3)
	rev := g.Reverse()
	if rev.N() != g.N() || rev.M() != g.M() {
		t.Fatalf("reverse dims (%d,%d) != (%d,%d)", rev.N(), rev.M(), g.N(), g.M())
	}
	g.Edges(func(u, v int32) bool {
		if !rev.HasEdge(int(v), int(u)) {
			t.Fatalf("reverse missing edge %d->%d", v, u)
		}
		return true
	})
	if rev.Reverse() != g {
		t.Error("Reverse().Reverse() should return the original graph")
	}
}

func TestPermuteToReverse(t *testing.T) {
	g := ErdosRenyi(30, 200, 11)
	w := make([]int32, g.M())
	rng := rand.New(rand.NewSource(5))
	for i := range w {
		w[i] = int32(rng.Intn(100) + 1)
	}
	rw := PermuteToReverse(g, w)
	rev := g.Reverse()
	// Cost of edge u->v in g must equal cost of edge v->u in rev.
	g.Edges(func(u, v int32) bool {
		e := g.EdgeIndex(int(u), int(v))
		re := rev.EdgeIndex(int(v), int(u))
		if w[e] != rw[re] {
			t.Fatalf("weight mismatch on edge %d->%d: %d vs %d", u, v, w[e], rw[re])
		}
		return true
	})
}

func TestPermuteToReversePanics(t *testing.T) {
	g := Ring(5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	PermuteToReverse(g, make([]int32, 3))
}

func TestScaleFreeShape(t *testing.T) {
	g := ScaleFree(ScaleFreeConfig{N: 3000, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.2, Seed: 1})
	if g.N() != 3000 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() < 3000*4 {
		t.Fatalf("M = %d, want >= %d", g.M(), 3000*4)
	}
	// Follower counts (out-degree under the information-flow
	// orientation) should be heavy-tailed: max far above the mean.
	outdeg := make([]int, g.N())
	g.Edges(func(u, v int32) bool { outdeg[u]++; return true })
	maxOut, sum := 0, 0
	for _, d := range outdeg {
		sum += d
		if d > maxOut {
			maxOut = d
		}
	}
	mean := float64(sum) / float64(len(outdeg))
	if float64(maxOut) < 10*mean {
		t.Errorf("max out-degree %d not heavy-tailed vs mean %.1f", maxOut, mean)
	}
}

// TestScaleFreeExponentOrdering checks the generator's tail-heaviness
// ordering: a target exponent of -2.1 must concentrate more mass in the
// head of the follower-count distribution than -2.9.
func TestScaleFreeExponentOrdering(t *testing.T) {
	top100 := func(exp float64) float64 {
		g := ScaleFree(ScaleFreeConfig{N: 5000, OutDeg: 3, Exponent: exp, Seed: 9})
		outdeg := make([]int, g.N())
		g.Edges(func(u, v int32) bool { outdeg[u]++; return true })
		sort.Sort(sort.Reverse(sort.IntSlice(outdeg)))
		top := 0
		for _, d := range outdeg[:100] {
			top += d
		}
		return float64(top) / float64(g.M())
	}
	heavy, light := top100(-2.1), top100(-2.9)
	if heavy <= light {
		t.Errorf("top-100 mass: exp -2.1 gives %.3f, exp -2.9 gives %.3f; want heavier tail for -2.1", heavy, light)
	}
}

func TestErdosRenyiCount(t *testing.T) {
	g := ErdosRenyi(100, 1234, 2)
	if g.M() != 1234 {
		t.Errorf("M = %d, want 1234", g.M())
	}
}

func TestPlantedPartitionCommunityBias(t *testing.T) {
	cfg := PlantedPartitionConfig{N: 1000, K: 2, AvgInDeg: 12, IntraFrac: 0.9, Reciprocity: 0.3, Seed: 4}
	g := PlantedPartition(cfg)
	intra, inter := 0, 0
	g.Edges(func(u, v int32) bool {
		if Community(int(u), cfg.N, cfg.K) == Community(int(v), cfg.N, cfg.K) {
			intra++
		} else {
			inter++
		}
		return true
	})
	if intra <= 3*inter {
		t.Errorf("intra=%d inter=%d: expected strong intra-community bias", intra, inter)
	}
	if avg := float64(g.M()) / float64(cfg.N); math.Abs(avg-cfg.AvgInDeg) > cfg.AvgInDeg {
		t.Errorf("average degree %.1f too far from target %.1f", avg, cfg.AvgInDeg)
	}
}

func TestRingAndGrid(t *testing.T) {
	r := Ring(6)
	if r.M() != 12 {
		t.Errorf("Ring(6).M = %d, want 12", r.M())
	}
	for u := 0; u < 6; u++ {
		if !r.HasEdge(u, (u+1)%6) || !r.HasEdge((u+1)%6, u) {
			t.Errorf("ring missing edges at %d", u)
		}
	}
	g := Grid(3, 2)
	if g.N() != 6 {
		t.Errorf("Grid(3,2).N = %d", g.N())
	}
	// 3x2 grid: horizontal 2 per row x 2 rows, vertical 3; bidirected.
	if g.M() != 2*(2*2+3) {
		t.Errorf("Grid(3,2).M = %d, want 14", g.M())
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 20 {
		t.Errorf("Complete(5).M = %d, want 20", g.M())
	}
}

func TestIORoundTrip(t *testing.T) {
	g := ErdosRenyi(25, 120, 13)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round-trip dims (%d,%d) != (%d,%d)", g2.N(), g2.M(), g.N(), g.M())
	}
	g.Edges(func(u, v int32) bool {
		if !g2.HasEdge(int(u), int(v)) {
			t.Fatalf("round-trip lost edge %d->%d", u, v)
		}
		return true
	})
}

func TestReadFromErrors(t *testing.T) {
	cases := []string{
		"",
		"3",
		"3 2\n0 1",        // header promises 2 edges, file has 1
		"3 1\n0 one",      // malformed int
		"3 1\n0 1 2",      // malformed line
		"notanint 1\n",    // malformed header
		"-1 0",            // negative node count
		"3 -1",            // negative edge count
		"3 1\n0 5",        // endpoint past n
		"3 1\n-1 0",       // negative endpoint
		"3 1\n0 1\n1 2",   // more edges than declared
		"3000000000000 0", // node count past the int32 CSR
		"3 3000000000000", // edge count past the int32 CSR
	}
	for _, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestReadFromComments(t *testing.T) {
	in := "# fixture\n3 2\n\n0 1\n# mid comment\n1 2\n"
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("comment-tolerant parse failed")
	}
}

// TestQuickBuilderReverseInvolution: Reverse is an involution and
// preserves the edge multiset for arbitrary random graphs.
func TestQuickBuilderReverseInvolution(t *testing.T) {
	prop := func(seed int64, rawN uint8, rawM uint16) bool {
		n := int(rawN%50) + 2
		m := int(rawM % 500)
		g := ErdosRenyiCapped(n, m, seed)
		rev := g.Reverse()
		if rev.M() != g.M() {
			return false
		}
		ok := true
		g.Edges(func(u, v int32) bool {
			if !rev.HasEdge(int(v), int(u)) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ErdosRenyiCapped is a test helper clamping m to the feasible range.
func ErdosRenyiCapped(n, m int, seed int64) *Digraph {
	if max := n * (n - 1); m > max {
		m = max
	}
	return ErdosRenyi(n, m, seed)
}

// TestTailInEdgesReverseEdge covers the edge-index accessors the
// incremental ground-distance pipeline relies on.
func TestTailInEdgesReverseEdge(t *testing.T) {
	g := ErdosRenyiCapped(40, 300, 7)
	rev := g.Reverse()
	for e := 0; e < g.M(); e++ {
		u, v := g.Tail(e), g.Head(e)
		lo, hi := g.EdgeRange(int(u))
		if e < lo || e >= hi {
			t.Fatalf("Tail(%d) = %d but edge not in its row [%d,%d)", e, u, lo, hi)
		}
		re := g.ReverseEdge(e)
		if rev.Tail(re) != v || rev.Head(re) != u {
			t.Fatalf("ReverseEdge(%d): rev edge %d is %d->%d, want %d->%d",
				e, re, rev.Tail(re), rev.Head(re), v, u)
		}
		if rev.ReverseEdge(re) != e {
			t.Fatalf("ReverseEdge not an involution at edge %d", e)
		}
	}
	// InEdges(v) must enumerate exactly the edges x->v, with indices in
	// g's CSR order, on both the graph and its transpose.
	for _, gr := range []*Digraph{g, rev} {
		seen := make(map[int]bool)
		for v := 0; v < gr.N(); v++ {
			tails, edges := gr.InEdges(v)
			if len(tails) != len(edges) {
				t.Fatal("InEdges slices misaligned")
			}
			for i, p := range tails {
				e := int(edges[i])
				if gr.Tail(e) != p || gr.Head(e) != int32(v) {
					t.Fatalf("InEdges(%d): edge %d is %d->%d, want %d->%d",
						v, e, gr.Tail(e), gr.Head(e), p, v)
				}
				if seen[e] {
					t.Fatalf("InEdges reported edge %d twice", e)
				}
				seen[e] = true
			}
		}
		if len(seen) != gr.M() {
			t.Fatalf("InEdges covered %d of %d edges", len(seen), gr.M())
		}
	}
}

// TestReverseConcurrentFirstUse hammers the lazy transpose build from
// many goroutines; run under -race it pins the sync.Once guard that
// makes concurrent first use safe (engine workers share a Digraph).
func TestReverseConcurrentFirstUse(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := ErdosRenyiCapped(200, 2000, int64(trial))
		var wg sync.WaitGroup
		revs := make([]*Digraph, 16)
		for i := range revs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rev := g.Reverse()
				// Touch the mapping paths concurrently too.
				_ = g.ReverseEdge(0)
				_, _ = rev.InEdges(0)
				revs[i] = rev
			}(i)
		}
		wg.Wait()
		for i := 1; i < len(revs); i++ {
			if revs[i] != revs[0] {
				t.Fatal("concurrent Reverse returned distinct transposes")
			}
		}
	}
}
