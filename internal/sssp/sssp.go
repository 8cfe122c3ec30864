// Package sssp implements single-source and all-pairs shortest paths
// over the CSR digraphs of package graph with per-edge integer costs.
//
// The ground distances of SND (paper eq. 2) are shortest-path lengths in
// a network whose edge costs are positive integers bounded by a constant
// U (Assumption 2). Dijkstra's algorithm therefore runs with any of the
// monotone queues in package pqueue, and every run here picks its own
// from the cost bound the caller passes (see Frontier): Dial's bucket
// queue and the radix heap exploit the integer bound, mirroring the
// Ahuja-Mehlhorn-Orlin-Tarjan substrate cited by the paper's Theorem 4.
//
// Johnson's algorithm (here: n Dijkstra runs, as all costs are already
// non-negative) provides the dense all-pairs matrix of the direct
// "CPLEX-style" SND baseline of Fig. 11, which package core keeps as
// its reference solve. The package tests check every search against a
// Bellman-Ford oracle.
package sssp

import (
	"math"

	"snd/internal/graph"
)

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = math.MaxInt64

// Result holds per-node shortest-path distances and the parent edge
// tree. Parent[v] is the predecessor of v on a shortest path, or -1.
type Result struct {
	Dist   []int64
	Parent []int32
}

// DijkstraInto computes shortest paths from src in g with per-edge
// costs w (aligned with g's CSR edge order), storing them in res; the
// slices are resized as needed. Every cost must lie in [0, maxCost]:
// the bound picks the run's priority queue (see Frontier). The queue is
// allocated per call; hot paths pass a pooled Frontier via
// DijkstraFrontierInto instead.
func DijkstraInto(g *graph.Digraph, w []int32, src int, maxCost int64, res *Result) {
	DijkstraFrontierInto(g, w, src, maxCost, res, &Frontier{})
}

// DijkstraFrontierInto is DijkstraInto drawing its priority queue from
// the caller's pooled Frontier, so repeated single-source runs (the
// Theorem 4 pipeline charges one per residual supplier) allocate no
// queue storage after warmup.
func DijkstraFrontierInto(g *graph.Digraph, w []int32, src int, maxCost int64, res *Result, fr *Frontier) {
	n := g.N()
	if len(w) != g.M() {
		panic("sssp: weight array not aligned with graph edges")
	}
	if src < 0 || src >= n {
		panic("sssp: source out of range")
	}
	res.Dist = resizeInt64(res.Dist, n)
	res.Parent = resizeInt32(res.Parent, n)
	dist, parent := res.Dist, res.Parent
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = -1
	}
	q, _ := fr.acquire(0, maxCost, n)
	dist[src] = 0
	q.Push(src, 0)
	for {
		u, key, ok := q.Pop()
		if !ok {
			break
		}
		if key > dist[u] {
			continue // stale lazy-deletion entry
		}
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			nd := key + int64(w[e])
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = int32(u)
				q.Push(int(v), nd)
			}
		}
	}
}

// Johnson computes the dense all-pairs distance matrix D with
// D[u][v] = dist(u, v). All costs are non-negative in this repository,
// so it reduces to n Dijkstra runs (the O(n^2 log n) cost quoted by the
// paper for the direct approach). Intended for the small instances of
// the dense/exact SND path only.
func Johnson(g *graph.Digraph, w []int32, maxCost int64) [][]int64 {
	n := g.N()
	d := make([][]int64, n)
	var res Result
	var fr Frontier
	for u := 0; u < n; u++ {
		DijkstraFrontierInto(g, w, u, maxCost, &res, &fr)
		row := make([]int64, n)
		copy(row, res.Dist)
		d[u] = row
	}
	return d
}

func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
