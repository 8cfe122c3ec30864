package sssp

import (
	"math/rand"
	"sort"
	"testing"

	"snd/internal/graph"
)

// kNearestCase is one decoded DijkstraKNearestInto instance.
type kNearestCase struct {
	g        *graph.Digraph
	w        []int32
	srcs     []int32 // repeats allowed, within and across columns
	srcCols  []int32
	nCols    int
	targets  []int32 // repeats allowed
	k        int     // 1..nCols+1
	pin      queueKind
	maxCost  int64
	cutoff   int64
	tieHeavy bool // every cost drawn from {1, 5, 17}
}

// tieCosts are the tie-heavy costs: sums of few of them collide often.
var tieCosts = []int32{1, 5, 17}

// decodeKNearestCase builds a small digraph, its weights (random up to
// a bound, or tie-heavy), a cutoff, a queue, k, a labelled source list
// and a target list from the input bytes. Sources and targets are
// drawn from the graph's vertices, so a vertex often sources two
// columns, or one column twice, or is a target as well.
func decodeKNearestCase(data []byte) kNearestCase {
	in := fuzzBytes(data)
	queues := []queueKind{queueBinary, queueDial, queueRadix, queueByCost}
	var c kNearestCase
	n := 1 + in.next(24)
	c.pin = queues[in.next(len(queues))]
	c.tieHeavy = in.next(2) == 1
	c.maxCost = int64(1 + in.next(20))
	if c.tieHeavy {
		c.maxCost = 17
	}
	c.cutoff = Unreachable
	if cb := in.next(256); cb < 192 {
		c.cutoff = int64(cb)
	}
	c.nCols = 1 + in.next(8)
	c.k = 1 + in.next(c.nCols+1)
	for s := in.next(24); s > 0; s-- {
		c.srcs = append(c.srcs, int32(in.next(n)))
		c.srcCols = append(c.srcCols, int32(in.next(c.nCols)))
	}
	for t := in.next(24); t > 0; t-- {
		c.targets = append(c.targets, int32(in.next(n)))
	}
	b := graph.NewBuilder(n)
	for m := in.next(4*n + 1); m > 0; m-- {
		b.AddEdge(in.next(n), in.next(n))
	}
	c.g = b.Build()
	c.w = make([]int32, c.g.M())
	for e := range c.w {
		if c.tieHeavy {
			c.w[e] = tieCosts[in.next(len(tieCosts))]
		} else {
			c.w[e] = int32(1 + in.next(int(c.maxCost)))
		}
	}
	return c
}

// columnRunsOracle is the search the K-nearest one replaces: one
// DijkstraGoalsInto per column, from its sources, with the targets as
// goals. want[i][c] is column c's distance to targets[i] within the
// cutoff, Unreachable past it.
func columnRunsOracle(c kNearestCase, srcs []int32) [][]int64 {
	want := make([][]int64, len(c.targets))
	for i := range want {
		want[i] = make([]int64, c.nCols)
	}
	out := make([]int64, len(c.targets))
	for col := 0; col < c.nCols; col++ {
		var members []int32
		for i, s := range srcs {
			if int(c.srcCols[i]) == col {
				members = append(members, s)
			}
		}
		DijkstraGoalsInto(c.g, c.w, members, c.targets, nil, 0, c.maxCost, c.cutoff, out, nil)
		for i, d := range out {
			want[i][col] = d
		}
	}
	return want
}

// checkKNearest compares one search's rows and radii with the column
// runs: a complete row (radius Unreachable) equals them; a partial row
// holds at least k columns within its radius, each exact, the radius
// is the k-th nearest column's distance, and every other column reads
// Unreachable while its distance is at least radius + 1.
func checkKNearest(t *testing.T, c kNearestCase, srcs []int32, out [][]int64, radius []int64) {
	t.Helper()
	want := columnRunsOracle(c, srcs)
	for i, row := range out {
		r := radius[i]
		if r == Unreachable {
			for col := range row {
				if row[col] != want[i][col] {
					t.Fatalf("k %d cutoff %d target %d (vertex %d): complete row column %d = %d, want %d",
						c.k, c.cutoff, i, c.targets[i], col, row[col], want[i][col])
				}
			}
			continue
		}
		if r > c.cutoff {
			t.Fatalf("target %d: radius %d past cutoff %d", i, r, c.cutoff)
		}
		within := 0
		for col, d := range row {
			switch {
			case d <= r:
				within++
				if d != want[i][col] {
					t.Fatalf("k %d target %d: column %d = %d within radius %d, want %d", c.k, i, col, d, r, want[i][col])
				}
			case d != Unreachable || want[i][col] < r+1:
				t.Fatalf("k %d target %d: column %d reads %d with distance %d past radius %d", c.k, i, col, d, want[i][col], r)
			}
		}
		sorted := append([]int64(nil), want[i]...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		if within < c.k || within == c.nCols || sorted[c.k-1] != r {
			t.Fatalf("k %d target %d: %d of %d columns within radius %d; sorted distances %v", c.k, i, within, c.nCols, r, sorted)
		}
	}
}

// runKNearest runs the search on c from srcs into fresh rows.
func runKNearest(c kNearestCase, srcs []int32, ks *KNearestScratch) ([][]int64, []int64) {
	out := make([][]int64, len(c.targets))
	for i := range out {
		out[i] = make([]int64, c.nCols)
	}
	radius := make([]int64, len(c.targets))
	DijkstraKNearestInto(c.g, c.w, srcs, c.srcCols, c.nCols, c.targets, c.k, c.maxCost, c.cutoff, out, radius, ks)
	return out, radius
}

// FuzzKNearest checks the K-nearest-column search against one
// DijkstraGoalsInto run per column over random small digraphs, random
// and tie-heavy ({1, 5, 17}) costs, cutoffs below the diameter,
// queues, k up to one past the column count, vertices sourcing two
// columns or one column twice, and repeated targets. Every cell within
// a target's radius must be exact and every cell past it at least
// radius + 1. Each input runs twice on one scratch, from its sources
// and from each source's next vertex, so labels or slots the first run
// left behind would show in the second. The seed corpus is in
// testdata/fuzz/FuzzKNearest.
func FuzzKNearest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKNearestCase(data)
		ks := &KNearestScratch{}
		ks.fr.pin = c.pin
		shifted := make([]int32, len(c.srcs))
		for i, s := range c.srcs {
			shifted[i] = (s + 1) % int32(c.g.N())
		}
		for _, srcs := range [][]int32{c.srcs, shifted} {
			out, radius := runKNearest(c, srcs, ks)
			checkKNearest(t, c, srcs, out, radius)
		}
	})
}

// TestKNearestMatchesColumnRuns runs the search on scale-free graphs
// with bank-like columns (a few scattered members each) against the
// column runs, for k from 1 to past the column count, with the cutoff
// open and below the diameter, on random and tie-heavy costs.
func TestKNearestMatchesColumnRuns(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ScaleFree(graph.ScaleFreeConfig{N: 300, OutDeg: 3, Exponent: -2.3, Reciprocity: 0.3, Seed: 500 + seed})
		c := kNearestCase{g: g, nCols: 12, maxCost: 17, cutoff: Unreachable, tieHeavy: seed%2 == 1}
		c.w = randWeights(g, 17, seed)
		if c.tieHeavy {
			for e := range c.w {
				c.w[e] = tieCosts[rng.Intn(len(tieCosts))]
			}
		}
		for col := 0; col < c.nCols; col++ {
			for m := 1 + rng.Intn(4); m > 0; m-- {
				c.srcs = append(c.srcs, int32(rng.Intn(g.N())))
				c.srcCols = append(c.srcCols, int32(col))
			}
		}
		for i := 0; i < 40; i++ {
			c.targets = append(c.targets, int32(rng.Intn(g.N())))
		}
		ks := &KNearestScratch{}
		for _, k := range []int{1, 4, 8, 12, 13} {
			for _, cutoff := range []int64{Unreachable, 20} {
				c.k, c.cutoff = k, cutoff
				out, radius := runKNearest(c, c.srcs, ks)
				checkKNearest(t, c, c.srcs, out, radius)
			}
		}
	}
}
