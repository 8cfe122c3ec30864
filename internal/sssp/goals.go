package sssp

import (
	"snd/internal/graph"
	"snd/internal/pqueue"
)

// GoalsScratch holds the reusable buffers of DijkstraGoalsInto: the
// epoch-stamped distance labels (so a run never pays an O(n) clear —
// its cost scales with the region it actually explores), the target
// marks with their per-vertex lists of target indices, and the pooled
// frontier queues. One scratch serves any number of runs over graphs
// of any size; the zero value is ready to use. A GoalsScratch must not
// be shared between concurrent runs.
type GoalsScratch struct {
	fr     Frontier
	dist   []int64
	seen   []int32 // epoch mark: dist[v] is a valid label this run
	target []int32 // epoch mark: v is a queried target this run
	head   []int32 // first index into targets naming v (valid when target[v] is marked)
	next   []int32 // next[i]: the following index naming targets[i], or -1
	epoch  int32
}

func (gs *GoalsScratch) ensure(n, k int) {
	if len(gs.dist) < n {
		gs.dist = make([]int64, n)
		gs.seen = make([]int32, n)
		gs.target = make([]int32, n)
		gs.head = make([]int32, n)
		gs.epoch = 0
	}
	if len(gs.next) < k {
		gs.next = make([]int32, k)
	}
	gs.epoch++
	if gs.epoch == 0 { // wrapped: stamps are stale-but-nonzero, reset
		for i := range gs.seen {
			gs.seen[i] = 0
			gs.target[i] = 0
		}
		gs.epoch = 1
	}
}

// DijkstraGoals is DijkstraGoalsInto with one column per target,
// allocating its own result row and scratch; intended for tests and
// one-off callers.
func DijkstraGoals(g *graph.Digraph, w []int32, src int, targets []int32, kind pqueue.Kind, maxCost, cutoff int64) []int64 {
	out := make([]int64, len(targets))
	DijkstraGoalsInto(g, w, src, targets, nil, kind, maxCost, cutoff, out, &GoalsScratch{})
	return out
}

// unsettled marks a column of out that has targets but none settled
// yet; distances are never negative, so the mark cannot collide.
const unsettled = -1

// DijkstraGoalsInto runs a goal-set-pruned Dijkstra from src that fills
// one output column per group of targets: cols[i] names the column of
// targets[i], and out[c] receives the distance from src to the nearest
// target of column c. With cols nil every target is its own column
// (out[i] = dist(src, targets[i])). The search stops as soon as every
// column holds a settled target (or the frontier minimum exceeds
// cutoff), so a column of many targets costs only the ball reaching its
// nearest one. Settled labels are exact and settle in distance order,
// so on every column the result is provably identical to the minimum
// over the full row a DijkstraInto from src would produce, while the
// work scales with the ball that covers the columns rather than the
// graph. This is the Theorem 4 fan-out's hot path: per EMD* term each
// residual source needs the distance to every opposite-side residual
// user and to the nearest member of every bank, and settling anything
// further is waste.
//
// cutoff prunes the search radius: a column whose nearest target lies
// beyond cutoff is reported Unreachable (pass Unreachable to disable),
// as is a column with no reachable target or no target at all. Callers
// that saturate long distances anyway — the term pipeline caps
// everything beyond its escape cost — lose nothing by also not walking
// them. A target may appear several times, in one column or in several
// (a user can be both an opposite-side user and a bank member), and src
// itself may be a target.
//
// len(out) is the column count: len(targets) when cols is nil, else any
// length covering every cols entry. maxCost must bound every edge cost
// when kind is (or resolves to) pqueue.KindDial; it is otherwise
// advisory, as with DijkstraInto.
func DijkstraGoalsInto(g *graph.Digraph, w []int32, src int, targets, cols []int32, kind pqueue.Kind, maxCost, cutoff int64, out []int64, gs *GoalsScratch) {
	n := g.N()
	if len(w) != g.M() {
		panic("sssp: weight array not aligned with graph edges")
	}
	if src < 0 || src >= n {
		panic("sssp: source out of range")
	}
	if cols == nil && len(out) != len(targets) {
		panic("sssp: output row not aligned with targets")
	}
	if cols != nil && len(cols) != len(targets) {
		panic("sssp: column map not aligned with targets")
	}
	if gs == nil {
		gs = &GoalsScratch{}
	}
	gs.ensure(n, len(targets))
	epoch := gs.epoch
	dist, seen, target, head, next := gs.dist, gs.seen, gs.target, gs.head, gs.next
	for c := range out {
		out[c] = Unreachable
	}
	// remaining counts the columns that have a target but no settled
	// one; out[c] holds the unsettled mark meanwhile.
	remaining := 0
	for i, t := range targets {
		c := i
		if cols != nil {
			c = int(cols[i])
		}
		if out[c] != unsettled {
			out[c] = unsettled
			remaining++
		}
		if target[t] != epoch {
			target[t] = epoch
			head[t] = -1
		}
		next[i] = head[t]
		head[t] = int32(i)
	}
	q, _ := gs.fr.acquire(kind, 0, maxCost, n)
	dist[src] = 0
	seen[src] = epoch
	if remaining > 0 && cutoff >= 0 {
		q.Push(src, 0)
	}
	for remaining > 0 {
		u, key, ok := q.Pop()
		if !ok {
			break // every reachable vertex is settled
		}
		if key > cutoff {
			break // all remaining columns lie beyond the cutoff
		}
		if key > dist[u] {
			continue // stale lazy-deletion entry
		}
		if target[u] == epoch {
			// u settles at its final distance, and nothing settled
			// earlier was nearer: every column u belongs to that is
			// still open has found its nearest target.
			for i := head[u]; i >= 0; i = next[i] {
				c := i
				if cols != nil {
					c = cols[i]
				}
				if out[c] == unsettled {
					out[c] = key
					remaining--
				}
			}
			if remaining == 0 {
				break // settling u's neighbors cannot change any column
			}
		}
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			nd := key + int64(w[e])
			if seen[v] != epoch || nd < dist[v] {
				seen[v] = epoch
				dist[v] = nd
				if nd <= cutoff {
					q.Push(int(v), nd)
				}
			}
		}
	}
	if remaining > 0 {
		for c, d := range out {
			if d == unsettled {
				out[c] = Unreachable
			}
		}
	}
}
