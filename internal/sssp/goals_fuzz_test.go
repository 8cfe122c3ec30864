package sssp

import (
	"testing"

	"snd/internal/graph"
	"snd/internal/pqueue"
)

// fuzzBytes decodes a fuzz input as a stream of small integers; an
// exhausted stream reads as zeros, so every input decodes.
type fuzzBytes []byte

func (b *fuzzBytes) next(mod int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % mod
}

// goalsCase is one decoded DijkstraGoalsInto instance.
type goalsCase struct {
	g       *graph.Digraph
	w       []int32
	src     int
	targets []int32
	cols    []int32 // nil: one column per target
	nCols   int
	kind    pqueue.Kind
	maxCost int64
	cutoff  int64
}

// decodeGoalsCase builds a small digraph, its weights, a source, a
// cutoff, a queue kind and a target list with its column map from the
// input bytes. Columns are drawn from a range wider than the targets
// fill, so some stay empty; targets are drawn from a small vertex range,
// so repeats — in one column or across columns — are common.
func decodeGoalsCase(data []byte) goalsCase {
	in := fuzzBytes(data)
	kinds := []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix, pqueue.KindAuto}
	var c goalsCase
	n := 1 + in.next(24)
	c.kind = kinds[in.next(len(kinds))]
	c.maxCost = int64(1 + in.next(20))
	c.src = in.next(n)
	c.cutoff = Unreachable
	if cb := in.next(256); cb < 192 {
		c.cutoff = int64(cb) // below, at and above typical path lengths
	}
	grouped := in.next(4) != 0
	c.nCols = 1 + in.next(8)
	k := in.next(24)
	b := graph.NewBuilder(n)
	for m := in.next(4*n + 1); m > 0; m-- {
		b.AddEdge(in.next(n), in.next(n))
	}
	c.g = b.Build()
	c.w = make([]int32, c.g.M())
	for e := range c.w {
		c.w[e] = int32(1 + in.next(int(c.maxCost)))
	}
	c.targets = make([]int32, k)
	for i := range c.targets {
		c.targets[i] = int32(in.next(n))
	}
	if grouped {
		c.cols = make([]int32, k)
		for i := range c.cols {
			c.cols[i] = int32(in.next(c.nCols))
		}
	} else {
		c.nCols = k
	}
	return c
}

// wantGoals is the oracle: per column, the minimum Bellman-Ford
// distance over the column's targets, Unreachable when that minimum
// exceeds the cutoff or the column has no reachable target.
func wantGoals(c goalsCase, src int) []int64 {
	dist := BellmanFord(c.g, c.w, src).Dist
	want := make([]int64, c.nCols)
	for j := range want {
		want[j] = Unreachable
	}
	for i, t := range c.targets {
		j := i
		if c.cols != nil {
			j = int(c.cols[i])
		}
		if d := dist[t]; d < want[j] {
			want[j] = d
		}
	}
	for j, d := range want {
		if d > c.cutoff {
			want[j] = Unreachable
		}
	}
	return want
}

// FuzzDijkstraGoals checks the goal search against column minima of
// the BellmanFord oracle over random small digraphs, weights, sources,
// cutoffs, queue kinds and column maps (users in several columns,
// repeated targets in one column, empty and unreachable columns). Each
// input runs twice on one scratch, from src and from the next vertex,
// so stale epoch marks from the first run would show in the second.
// The seed corpus is in testdata/fuzz/FuzzDijkstraGoals.
func FuzzDijkstraGoals(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeGoalsCase(data)
		gs := &GoalsScratch{}
		out := make([]int64, c.nCols)
		for _, src := range []int{c.src, (c.src + 1) % c.g.N()} {
			DijkstraGoalsInto(c.g, c.w, src, c.targets, c.cols, c.kind, c.maxCost, c.cutoff, out, gs)
			want := wantGoals(c, src)
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("src %d kind %v cutoff %d targets %v cols %v: column %d = %d, want %d",
						src, c.kind, c.cutoff, c.targets, c.cols, j, out[j], want[j])
				}
			}
		}
	})
}
