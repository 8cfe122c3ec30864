package sssp

import (
	"fmt"
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/pqueue"
)

// queueName names the implementation behind q.
func queueName(q pqueue.MinQueue) string {
	switch q.(type) {
	case *pqueue.Dial:
		return "dial"
	case *pqueue.BinaryHeap:
		return "binary"
	case *pqueue.Radix:
		return "radix"
	}
	return fmt.Sprintf("%T", q)
}

// TestAcquireQueueRule pins which queue each branch of the cost rule
// hands out: Dial while 1 <= maxCost <= autoDialLimit and the window
// spread+maxCost fits 4n+64, the binary heap when that window is too
// wide, and the radix heap past the limit or for an all-zero bound.
func TestAcquireQueueRule(t *testing.T) {
	for _, tc := range []struct {
		n               int
		spread, maxCost int64
		want            string
	}{
		{60, 0, 1, "dial"},
		{60, 0, 20, "dial"},
		{60, 284, 20, "dial"}, // window 304 = 4n+64
		{60, 285, 20, "binary"},
		{60, 0, 1000, "binary"},
		{2000, 0, autoDialLimit, "dial"},
		{2000, 0, autoDialLimit + 1, "radix"},
		{60, 0, autoDialLimit + 1, "radix"},
		{60, 0, 0, "radix"},
	} {
		var fr Frontier
		q, shift := fr.acquire(tc.spread, tc.maxCost, tc.n)
		if got := queueName(q); got != tc.want || shift != (tc.want == "dial") {
			t.Errorf("n %d spread %d maxCost %d: %s (shift %v), want %s",
				tc.n, tc.spread, tc.maxCost, got, shift, tc.want)
		}
	}
}

// TestQueueRuleSearchesMatchBellmanFord runs every search of the
// package on one cost bound from each branch of the queue rule — full
// Dijkstra, the goal search over every vertex, and a repair after a
// batch of weight changes — and checks each against the Bellman-Ford
// oracle, and that the run drew the queue its branch names.
func TestQueueRuleSearchesMatchBellmanFord(t *testing.T) {
	const n = 60
	g := graph.ErdosRenyi(n, 400, 5)
	targets := make([]int32, n)
	for v := range targets {
		targets[v] = int32(v)
	}
	for _, tc := range []struct {
		maxCost int64
		want    string
	}{
		{20, "dial"},
		{1000, "binary"},
		{autoDialLimit + 1000, "radix"},
	} {
		w := randWeights(g, int32(tc.maxCost), tc.maxCost)
		check := func(what string, got []int64, src int) {
			t.Helper()
			want := BellmanFord(g, w, src).Dist
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("maxCost %d %s from %d: dist[%d] = %d, oracle %d",
						tc.maxCost, what, src, v, got[v], want[v])
				}
			}
		}
		var fr Frontier
		var res Result
		DijkstraFrontierInto(g, w, 0, tc.maxCost, &res, &fr)
		pooled := map[string]bool{"dial": fr.dial != nil, "binary": fr.heap != nil, "radix": fr.radix != nil}
		for name, ok := range pooled {
			if ok != (name == tc.want) {
				t.Errorf("maxCost %d: pooled queues %v, want only %s", tc.maxCost, pooled, tc.want)
				break
			}
		}
		check("Dijkstra", res.Dist, 0)

		gs := &GoalsScratch{}
		out := make([]int64, n)
		for _, src := range []int{0, 7, 31} {
			DijkstraGoalsInto(g, w, []int32{int32(src)}, targets, nil, 0, tc.maxCost, Unreachable, out, gs)
			check("goals", out, src)
		}

		rng := rand.New(rand.NewSource(tc.maxCost))
		rs := &RepairScratch{}
		for round := 0; round < 5; round++ {
			changed := make([]int32, 8)
			for i := range changed {
				e := int32(rng.Intn(g.M()))
				changed[i] = e
				w[e] = int32(1 + rng.Int63n(tc.maxCost))
			}
			RepairInto(g, w, 0, tc.maxCost, &res, changed, nil, n, rs)
			check("repair", res.Dist, 0)
		}
	}
}
