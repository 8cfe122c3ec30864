package sssp

import (
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/pqueue"
)

// benchGraph is a scale-free network shaped like the SND workloads
// (paper Section 6 synthetics), with ground-cost-like weights: mostly
// mid-range, a friendly/adverse spread, bounded by benchMaxCost.
const benchMaxCost = 17

func benchGraph(n int) (*graph.Digraph, []int32) {
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 7,
	})
	rng := rand.New(rand.NewSource(8))
	w := make([]int32, g.M())
	for i := range w {
		switch rng.Intn(10) {
		case 0:
			w[i] = 1 // friendly
		case 1, 2:
			w[i] = benchMaxCost // adverse
		default:
			w[i] = 5 // neutral
		}
	}
	return g, w
}

func benchTargets(n, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	targets := make([]int32, k)
	for i := range targets {
		targets[i] = int32(rng.Intn(n))
	}
	return targets
}

// BenchmarkDijkstraFull measures the full-graph single-source run per
// queue kind — the per-supplier cost of the pre-pruning Theorem 4
// fan-out and the baseline the goal-pruned benchmarks compare against.
func BenchmarkDijkstraFull(b *testing.B) {
	g, w := benchGraph(20000)
	for _, kind := range []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix} {
		b.Run(kind.String(), func(b *testing.B) {
			var res Result
			var fr Frontier
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DijkstraFrontierInto(g, w, i%g.N(), kind, benchMaxCost, &res, &fr)
			}
		})
	}
}

// BenchmarkDijkstraGoals measures the goal-pruned run at varying
// target-set sizes, with the saturation cutoff the term pipeline uses
// (32 escape hops); compare against BenchmarkDijkstraFull/dial for the
// pruning factor. banks64 is the clustered-bank shape of the Theorem 4
// fan-out: 64 columns, each grouping ~190 scattered members, where a
// column settles with its nearest member.
func BenchmarkDijkstraGoals(b *testing.B) {
	g, w := benchGraph(20000)
	cutoff := int64(32 * benchMaxCost)
	for _, k := range []int{16, 128, 1024} {
		targets := benchTargets(g.N(), k, int64(k))
		b.Run(map[int]string{16: "targets16", 128: "targets128", 1024: "targets1024"}[k], func(b *testing.B) {
			gs := &GoalsScratch{}
			out := make([]int64, len(targets))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DijkstraGoalsInto(g, w, []int32{int32(i % g.N())}, targets, nil, 0, pqueue.KindDial, benchMaxCost, cutoff, out, gs)
			}
		})
	}
	b.Run("banks64", func(b *testing.B) {
		const banks = 64
		rng := rand.New(rand.NewSource(64))
		members := rng.Perm(g.N())[:g.N()*3/5]
		targets := make([]int32, len(members))
		cols := make([]int32, len(members))
		for i, v := range members {
			targets[i] = int32(v)
			cols[i] = int32(rng.Intn(banks))
		}
		gs := &GoalsScratch{}
		out := make([]int64, banks)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DijkstraGoalsInto(g, w, []int32{int32(i % g.N())}, targets, cols, 0, pqueue.KindDial, benchMaxCost, cutoff, out, gs)
		}
	})
}

// BenchmarkRepair measures the Ramalingam-Reps tree repair against the
// fresh run it replaces, over a small dirty edge set.
func BenchmarkRepair(b *testing.B) {
	g, w := benchGraph(20000)
	base := Dijkstra(g, w, 0, pqueue.KindDial, benchMaxCost)
	rng := rand.New(rand.NewSource(9))
	changed := make([]int32, 48)
	w2 := make([]int32, len(w))
	copy(w2, w)
	for i := range changed {
		e := int32(rng.Intn(g.M()))
		changed[i] = e
		w2[e] = int32(1 + rng.Intn(benchMaxCost))
	}
	rs := &RepairScratch{}
	var res Result
	res.Dist = make([]int64, g.N())
	res.Parent = make([]int32, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(res.Dist, base.Dist)
		copy(res.Parent, base.Parent)
		RepairInto(g, w2, 0, pqueue.KindDial, benchMaxCost, &res, changed, nil, g.N()/4, rs)
	}
}
