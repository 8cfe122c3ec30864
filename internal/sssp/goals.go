package sssp

import "snd/internal/graph"

// GoalsScratch holds the reusable buffers of DijkstraGoalsInto: the
// distance labels, the per-vertex lists of target indices, the list of
// labelled vertices, and the pooled frontier queues. Between runs every
// label reads Unreachable and every list is empty; a run resets only
// what it touched, so its cost scales with the region it explores
// rather than the graph. One scratch serves any number of runs over
// graphs of any size; the zero value is ready to use. A GoalsScratch
// must not be shared between concurrent runs.
type GoalsScratch struct {
	fr      Frontier
	dist    []int64 // Unreachable between runs
	head    []int32 // first index into targets naming v, -1 if none (always -1 between runs)
	next    []int32 // next[i]: the following index naming targets[i], or -1
	touched []int32 // the vertices whose dist this run has set
}

func (gs *GoalsScratch) ensure(n, k int) {
	if len(gs.dist) < n {
		gs.dist = make([]int64, n)
		gs.head = make([]int32, n)
		for v := range gs.dist {
			gs.dist[v] = Unreachable
			gs.head[v] = -1
		}
	}
	if len(gs.next) < k {
		gs.next = make([]int32, k)
	}
}

// reset returns the labels this run set, and the target lists, to
// their between-run values.
func (gs *GoalsScratch) reset(targets []int32) {
	if len(gs.touched) > len(gs.dist)/4 {
		for v := range gs.dist {
			gs.dist[v] = Unreachable
		}
	} else {
		for _, v := range gs.touched {
			gs.dist[v] = Unreachable
		}
	}
	gs.touched = gs.touched[:0]
	for _, t := range targets {
		gs.head[t] = -1
	}
}

// unsettled marks a column of out that has targets but none settled
// yet; distances are never negative, so the mark cannot collide.
const unsettled = -1

// DijkstraGoalsInto runs a goal-set-pruned Dijkstra from the source set
// srcs (every source starts at distance 0) that fills one output column
// per group of targets: cols[i] names the column of targets[i], and
// out[c] receives the distance from the nearest source to the nearest
// target of column c. With cols nil every target is its own column
// (out[i] = min over srcs of dist(src, targets[i])). The search stops
// as soon as every column holds a settled target (or the frontier
// minimum exceeds cutoff), so a column of many targets costs only the
// ball reaching its nearest one. Settled labels are exact and settle in
// distance order, so on every column the result is provably identical
// to the minimum over the full rows DijkstraInto from each source would
// produce, while the work scales with the ball that covers the columns
// rather than the graph.
//
// This is the Theorem 4 fan-out's hot path. Per EMD* term each residual
// source needs the distance to every opposite-side residual user and to
// the nearest member of every bank, and settling anything further is
// waste. The fan-out runs either one search per source (srcs is that
// source; targets are the opposite users and every bank's members,
// grouped into columns) or, on the transpose graph, one search per
// column (srcs is an opposite user or a whole bank; targets are the
// sources, one column each).
//
// need > 0 asks for a partial row: once need columns have settled,
// the search finishes that key level and stops, and returns that key,
// the radius. Every column within the radius then holds its exact
// value, and every other column reads Unreachable while its true
// distance exceeds the radius (it may also lie past the cutoff, or be
// unreachable). A transport plan that only uses a source's nearest
// columns needs no more (the term pipeline charges an unknown column
// radius+1 and checks the plan). The search returns Unreachable, and
// every column is exact, when need <= 0, when fewer than need columns
// settle, or when every column settles within the radius's key level.
//
// cutoff prunes the search radius: a column whose nearest target lies
// beyond cutoff is reported Unreachable (pass Unreachable to disable),
// as is a column with no reachable target or no target at all. Callers
// that saturate long distances anyway — the term pipeline caps
// everything beyond its escape cost — lose nothing by also not walking
// them. A source or target may appear several times, a target in one
// column or in several (a user can be both an opposite-side user and a
// bank member), and a source may itself be a target. An empty srcs
// reaches nothing.
//
// len(out) is the column count: len(targets) when cols is nil, else any
// length covering every cols entry. maxCost must bound every edge cost;
// as with DijkstraInto, it picks the run's queue.
func DijkstraGoalsInto(g *graph.Digraph, w []int32, srcs, targets, cols []int32, need int, maxCost, cutoff int64, out []int64, gs *GoalsScratch) (radius int64) {
	n := g.N()
	if len(w) != g.M() {
		panic("sssp: weight array not aligned with graph edges")
	}
	for _, s := range srcs {
		if s < 0 || int(s) >= n {
			panic("sssp: source out of range")
		}
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
	defer gs.reset(targets)
	dist, head, next := gs.dist, gs.head, gs.next
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
		next[i] = head[t]
		head[t] = int32(i)
	}
	// stopAt is the remaining count at which a partial row has enough
	// columns. The search settles keys up to stop: the cutoff, then a
	// partial row's radius once stopAt is reached, past which nothing
	// more is pushed.
	stopAt := -1
	if need > 0 && need < remaining {
		stopAt = remaining - need
	}
	stop, partial := cutoff, false
	q, _ := gs.fr.acquire(0, maxCost, n)
	if remaining > 0 && cutoff >= 0 {
		for _, s := range srcs {
			if dist[s] != 0 {
				dist[s] = 0
				gs.touched = append(gs.touched, s)
				q.Push(int(s), 0)
			}
		}
	}
	for remaining > 0 {
		u, key, ok := q.Pop()
		if !ok {
			break // every reachable vertex is settled
		}
		if key > stop {
			break // past the cutoff, or past a partial row's key level
		}
		if key > dist[u] {
			continue // stale lazy-deletion entry
		}
		if head[u] >= 0 {
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
			if !partial && remaining <= stopAt {
				stop, partial = key, true
			}
		}
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			nd := key + int64(w[e])
			if d := dist[v]; nd < d {
				if d == Unreachable {
					gs.touched = append(gs.touched, v)
				}
				dist[v] = nd
				if nd <= stop {
					q.Push(int(v), nd)
				}
			}
		}
	}
	if remaining == 0 {
		return Unreachable
	}
	for c, d := range out {
		if d == unsettled {
			out[c] = Unreachable
		}
	}
	if partial {
		return stop
	}
	return Unreachable
}
