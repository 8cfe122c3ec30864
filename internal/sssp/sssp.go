// Package sssp implements single-source and all-pairs shortest paths
// over the CSR digraphs of package graph with per-edge integer costs.
//
// The ground distances of SND (paper eq. 2) are shortest-path lengths in
// a network whose edge costs are positive integers bounded by a constant
// U (Assumption 2). Dijkstra's algorithm therefore runs with any of the
// monotone queues in package pqueue; Dial's bucket queue and the radix
// heap exploit the integer bound, mirroring the Ahuja-Mehlhorn-Orlin-
// Tarjan substrate cited by the paper's Theorem 4.
//
// Bellman-Ford is included as an oracle for randomized tests, and
// Johnson's algorithm (here: n Dijkstra runs, as all costs are already
// non-negative) provides the dense all-pairs matrix used by the direct
// "CPLEX-style" SND baseline of Fig. 11.
package sssp

import (
	"math"

	"snd/internal/graph"
	"snd/internal/pqueue"
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

// Dijkstra computes shortest paths from src in g with per-edge costs w
// (aligned with g's CSR edge order; all costs must be >= 0). maxCost
// must bound every edge cost when kind is pqueue.KindDial; it is
// otherwise advisory.
func Dijkstra(g *graph.Digraph, w []int32, src int, kind pqueue.Kind, maxCost int64) Result {
	res := Result{
		Dist:   make([]int64, g.N()),
		Parent: make([]int32, g.N()),
	}
	DijkstraInto(g, w, src, kind, maxCost, &res)
	return res
}

// DijkstraInto is Dijkstra reusing caller-provided storage in res; the
// slices are resized as needed. The queue is allocated per call; hot
// paths pass a pooled Frontier via DijkstraFrontierInto instead.
func DijkstraInto(g *graph.Digraph, w []int32, src int, kind pqueue.Kind, maxCost int64, res *Result) {
	DijkstraFrontierInto(g, w, src, kind, maxCost, res, &Frontier{})
}

// DijkstraFrontierInto is DijkstraInto drawing its priority queue from
// the caller's pooled Frontier, so repeated single-source runs (the
// Theorem 4 pipeline charges one per residual supplier) allocate no
// queue storage after warmup.
func DijkstraFrontierInto(g *graph.Digraph, w []int32, src int, kind pqueue.Kind, maxCost int64, res *Result, fr *Frontier) {
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
	q, _ := fr.acquire(kind, 0, maxCost, n)
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

// MultiSource computes, for each node, the shortest distance from the
// nearest of the given sources (all sources start at distance 0). It is
// used by the ICC ground-cost model, which needs d_v(I) — the distance
// from the set of initial adopters to each user.
func MultiSource(g *graph.Digraph, w []int32, srcs []int, kind pqueue.Kind, maxCost int64) Result {
	n := g.N()
	res := Result{Dist: make([]int64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.Parent[i] = -1
	}
	q := pqueue.New(kind, maxCost, n)
	for _, s := range srcs {
		if res.Dist[s] != 0 {
			res.Dist[s] = 0
			q.Push(s, 0)
		}
	}
	for {
		u, key, ok := q.Pop()
		if !ok {
			break
		}
		if key > res.Dist[u] {
			continue
		}
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			nd := key + int64(w[e])
			if nd < res.Dist[v] {
				res.Dist[v] = nd
				res.Parent[v] = int32(u)
				q.Push(int(v), nd)
			}
		}
	}
	return res
}

// BellmanFord computes shortest paths from src; it tolerates (and is
// only used with) non-negative costs here, serving as a test oracle.
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

// Johnson computes the dense all-pairs distance matrix D with
// D[u][v] = dist(u, v). All costs are non-negative in this repository,
// so it reduces to n Dijkstra runs (the O(n^2 log n) cost quoted by the
// paper for the direct approach). Intended for the small instances of
// the dense/exact SND path only.
func Johnson(g *graph.Digraph, w []int32, kind pqueue.Kind, maxCost int64) [][]int64 {
	n := g.N()
	d := make([][]int64, n)
	var res Result
	var fr Frontier
	for u := 0; u < n; u++ {
		DijkstraFrontierInto(g, w, u, kind, maxCost, &res, &fr)
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
