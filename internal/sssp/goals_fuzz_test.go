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
	srcs    []int32 // 1-4 sources, repeats allowed
	targets []int32
	cols    []int32 // nil: one column per target
	nCols   int
	kind    pqueue.Kind
	maxCost int64
	cutoff  int64
	need    int // 0: every column; 1..nCols: a partial row of that many
}

// decodeGoalsCase builds a small digraph, its weights, a source set, a
// cutoff, a queue kind and a target list with its column map from the
// input bytes. Columns are drawn from a range wider than the targets
// fill, so some stay empty; targets and sources are drawn from a small
// vertex range, so repeats — of a target in one column or across
// columns, of a source, of a source as a target — are common. The
// sources past the first are decoded last, so an input written for
// the single-source search decodes to the same case; the partial-row
// count comes after them, so an input written before it decodes to a
// complete row.
func decodeGoalsCase(data []byte) goalsCase {
	in := fuzzBytes(data)
	kinds := []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix, pqueue.KindAuto}
	var c goalsCase
	n := 1 + in.next(24)
	c.kind = kinds[in.next(len(kinds))]
	c.maxCost = int64(1 + in.next(20))
	c.srcs = []int32{int32(in.next(n))}
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
	for extra := in.next(4); extra > 0; extra-- {
		c.srcs = append(c.srcs, int32(in.next(n)))
	}
	c.need = in.next(c.nCols + 1)
	return c
}

// wantGoals is the oracle: per column, the minimum Bellman-Ford
// distance over the sources and the column's targets, Unreachable when
// that minimum exceeds the cutoff or the column has no reachable
// target.
func wantGoals(c goalsCase, srcs []int32) []int64 {
	want := columnMinima(c, srcs)
	for j, d := range want {
		if d > c.cutoff {
			want[j] = Unreachable
		}
	}
	return want
}

// columnMinima is wantGoals with no cutoff.
func columnMinima(c goalsCase, srcs []int32) []int64 {
	dist := make([]int64, c.g.N())
	for v := range dist {
		dist[v] = Unreachable
	}
	for _, s := range srcs {
		for v, d := range BellmanFord(c.g, c.w, int(s)).Dist {
			dist[v] = min64(dist[v], d)
		}
	}
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
	return want
}

// FuzzDijkstraGoals checks the goal search against column minima of
// the BellmanFord oracle over random small digraphs, weights, source
// sets, cutoffs, queue kinds, column maps (users in several columns,
// repeated targets in one column, empty and unreachable columns) and
// partial-row counts. A complete row must equal the oracle on every
// column. A partial row (a radius below Unreachable) must hold at
// least need columns within its radius, each equal to the oracle, and
// read Unreachable on every other column, whose true minimum must
// exceed the radius. Each input runs twice on one scratch, from its
// sources and from each source's next vertex, so labels or target
// lists the first run left behind would show in the second. The seed
// corpus is in testdata/fuzz/FuzzDijkstraGoals.
func FuzzDijkstraGoals(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeGoalsCase(data)
		gs := &GoalsScratch{}
		out := make([]int64, c.nCols)
		shifted := make([]int32, len(c.srcs))
		for i, s := range c.srcs {
			shifted[i] = (s + 1) % int32(c.g.N())
		}
		for _, srcs := range [][]int32{c.srcs, shifted} {
			radius := DijkstraGoalsInto(c.g, c.w, srcs, c.targets, c.cols, c.need, c.kind, c.maxCost, c.cutoff, out, gs)
			want := wantGoals(c, srcs)
			if radius == Unreachable {
				for j := range want {
					if out[j] != want[j] {
						t.Fatalf("srcs %v kind %v cutoff %d need %d targets %v cols %v: column %d = %d, want %d",
							srcs, c.kind, c.cutoff, c.need, c.targets, c.cols, j, out[j], want[j])
					}
				}
				continue
			}
			if c.need <= 0 || radius > c.cutoff {
				t.Fatalf("srcs %v need %d cutoff %d: partial row with radius %d", srcs, c.need, c.cutoff, radius)
			}
			settled := 0
			for j, exact := range columnMinima(c, srcs) {
				switch {
				case out[j] <= radius:
					settled++
					if out[j] != exact {
						t.Fatalf("srcs %v kind %v need %d targets %v cols %v: settled column %d = %d, want %d",
							srcs, c.kind, c.need, c.targets, c.cols, j, out[j], exact)
					}
				case out[j] != Unreachable || exact <= radius:
					t.Fatalf("srcs %v kind %v need %d targets %v cols %v: column %d reads %d with minimum %d, radius %d",
						srcs, c.kind, c.need, c.targets, c.cols, j, out[j], exact, radius)
				}
			}
			if settled < c.need {
				t.Fatalf("srcs %v need %d: %d columns settled within radius %d", srcs, c.need, settled, radius)
			}
		}
	})
}
