package sssp

import "snd/internal/graph"

// RepairScratch holds the reusable buffers of RepairInto: epoch-stamped
// affected marks, the pooled frontier queues, and the affected-vertex
// list. One scratch serves any number of repairs over graphs of any
// size; the zero value is ready to use. A RepairScratch must not be
// shared between concurrent repairs.
type RepairScratch struct {
	stamp    []int32 // epoch mark: vertex is invalidated (affected)
	decided  []int32 // epoch mark: vertex's invalidation was resolved
	epoch    int32
	affected []int32
	seedItem []int32
	seedKey  []int64
	// fr pools the candidate heap and the re-settling frontier (the
	// shared Dial/radix/binary selection of bucket.go).
	fr Frontier
}

func (rs *RepairScratch) ensure(n int) {
	if len(rs.stamp) < n {
		rs.stamp = make([]int32, n)
		rs.decided = make([]int32, n)
		rs.epoch = 0
	}
	rs.epoch++
	if rs.epoch == 0 { // wrapped: stamps are stale-but-nonzero, reset
		for i := range rs.stamp {
			rs.stamp[i] = 0
			rs.decided[i] = 0
		}
		rs.epoch = 1
	}
	rs.affected = rs.affected[:0]
	rs.seedItem = rs.seedItem[:0]
	rs.seedKey = rs.seedKey[:0]
}

// RepairInto updates res — which must hold a valid shortest-path result
// (distances and parent tree) from src over g under the edge weights as
// they were before the listed edges changed — to the exact shortest
// paths under the current contents of w. changed lists the CSR edge
// indices whose weight may differ from the weights res was computed
// with; listing an unchanged edge is harmless, omitting a changed one
// is not.
//
// The repair is Ramalingam-Reps-style bounded re-relaxation: vertices
// whose shortest-path tree edge increased are resolved in distance
// order — ones still holding an equal-cost alternative support are
// re-parented onto it (common under integer costs) and keep their
// subtree, the rest are invalidated along with their now-unsupported
// descendants, re-labeled from unaffected in-neighbors, and re-settled
// by a Dijkstra pass seeded (with the decreased edges) from the
// endpoints of the changed edges, so the work scales with the region
// whose distances actually change rather than the graph. When the
// invalidated region exceeds maxAffected vertices, RepairInto abandons
// the repair and falls back to a full DijkstraInto, reporting false;
// the result is exact either way. maxCost must bound every edge cost:
// as with DijkstraInto it picks the queues. The re-settling queue is a
// min-seed-shifted Dial bucket queue when the bound and the seed spread
// fit its bucket window, else a binary or radix heap, which tolerate
// the unshifted seeds.
//
// changedTails optionally carries the tail node of each changed edge,
// aligned with changed; pass nil to have the tails recovered by binary
// search (callers that walked adjacency to collect the dirty set
// already know the tails, and passing them keeps the repair free of
// per-edge searches).
//
// rs may be nil (a transient scratch is allocated); pass a reused
// scratch on hot paths. Distances are exact, bit-identical to a fresh
// DijkstraInto; the parent tree is a valid shortest-path tree but may
// break ties differently.
func RepairInto(g *graph.Digraph, w []int32, src int, maxCost int64, res *Result, changed []int32, changedTails []int32, maxAffected int, rs *RepairScratch) bool {
	n := g.N()
	if len(w) != g.M() {
		panic("sssp: weight array not aligned with graph edges")
	}
	if len(res.Dist) != n || len(res.Parent) != n {
		panic("sssp: RepairInto needs a prior result sized to the graph")
	}
	if len(changed) == 0 {
		return true
	}
	if changedTails != nil && len(changedTails) != len(changed) {
		panic("sssp: changedTails not aligned with changed")
	}
	if rs == nil {
		rs = &RepairScratch{}
	}
	if maxAffected <= 0 {
		DijkstraFrontierInto(g, w, src, maxCost, res, &rs.fr)
		return false
	}
	rs.ensure(n)
	dist, parent := res.Dist, res.Parent
	stamp, epoch := rs.stamp, rs.epoch
	tailOf := func(i int) int32 {
		if changedTails != nil {
			return changedTails[i]
		}
		return g.Tail(int(changed[i]))
	}

	// Phase 1: invalidation roots — vertices whose tree edge increased,
	// so their label is no longer supported by its parent.
	cand := rs.fr.binary()
	decided := rs.decided
	for i, e := range changed {
		v := g.Head(int(e))
		u := tailOf(i)
		if parent[v] == u && dist[u] != Unreachable && dist[u]+int64(w[e]) > dist[v] {
			cand.Push(int(v), dist[v])
		}
	}

	// Phase 2: resolve candidates in increasing old-distance order.
	// A candidate whose label is still supported — some in-neighbor p
	// with dist[p] + w(p,v) == dist[v] under the new weights — is
	// re-parented onto that edge and its subtree is left alone; with
	// integer costs, equal-cost alternatives are common, which keeps
	// the invalidated set near the true change rather than the whole
	// subtree. Supports have strictly smaller old distance (costs are
	// >= 1), so distance order guarantees every potential support has
	// already been resolved when it is consulted. Only truly
	// unsupported vertices are invalidated, and only their tree
	// children become new candidates.
	aff := rs.affected
	for {
		vi, vd, ok := cand.Pop()
		if !ok {
			break
		}
		v := int32(vi)
		if decided[v] == epoch {
			continue
		}
		decided[v] = epoch
		supported := false
		tails, edges := g.InEdges(vi)
		for j, p := range tails {
			if stamp[p] == epoch {
				continue // invalidated: cannot support
			}
			dp := dist[p]
			if dp == Unreachable {
				continue
			}
			if dp+int64(w[edges[j]]) == vd {
				parent[v] = p
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		stamp[v] = epoch
		aff = append(aff, v)
		if len(aff) > maxAffected {
			rs.affected = aff
			DijkstraFrontierInto(g, w, src, maxCost, res, &rs.fr)
			return false
		}
		lo, hi := g.EdgeRange(vi)
		for e := lo; e < hi; e++ {
			c := g.Head(e)
			if parent[c] == v && decided[c] != epoch {
				cand.Push(int(c), dist[c])
			}
		}
	}
	rs.affected = aff

	// Phase 3: clear invalidated labels. Untouched labels are valid
	// upper bounds under the new weights (their tree paths are fully
	// supported), so they can seed the re-settling below.
	for _, a := range aff {
		dist[a] = Unreachable
		parent[a] = -1
	}

	// Phase 4: collect the seeds. Affected vertices get their best label
	// through unaffected in-neighbors; decreased edges relax their heads
	// directly. Either kind of seed may be improved further in phase 5.
	for _, a := range aff {
		tails, edges := g.InEdges(int(a))
		best, bestP := int64(Unreachable), int32(-1)
		for j, p := range tails {
			if stamp[p] == epoch {
				continue // affected in-neighbor: not settled yet
			}
			dp := dist[p]
			if dp == Unreachable {
				continue
			}
			if nd := dp + int64(w[edges[j]]); nd < best {
				best, bestP = nd, p
			}
		}
		if best < Unreachable {
			dist[a], parent[a] = best, bestP
			rs.seedItem = append(rs.seedItem, a)
			rs.seedKey = append(rs.seedKey, best)
		}
	}
	for i, e := range changed {
		u := tailOf(i)
		if stamp[u] == epoch {
			continue // relaxed when u is settled in phase 5
		}
		du := dist[u]
		if du == Unreachable {
			continue
		}
		v := g.Head(int(e))
		if nd := du + int64(w[e]); nd < dist[v] {
			dist[v], parent[v] = nd, u
			rs.seedItem = append(rs.seedItem, v)
			rs.seedKey = append(rs.seedKey, nd)
		}
	}
	if len(rs.seedItem) == 0 {
		return true // nothing to re-settle
	}

	// Phase 5: Dijkstra over the seeded frontier, touching only
	// vertices whose distance actually changes. Keys are shifted down
	// by the minimum seed so the spread fits Dial's bucket window on
	// the hot path (see Frontier.acquire).
	minSeed, maxSeed := rs.seedKey[0], rs.seedKey[0]
	for _, k := range rs.seedKey[1:] {
		if k < minSeed {
			minSeed = k
		}
		if k > maxSeed {
			maxSeed = k
		}
	}
	q, shifted := rs.fr.acquire(maxSeed-minSeed, maxCost, n)
	var shift int64
	if shifted {
		shift = minSeed
	}
	for i, a := range rs.seedItem {
		// A seed may be stale already (improved by a later decrease
		// seed for the same vertex); lazy deletion drops it on pop.
		if rs.seedKey[i] == dist[a] {
			q.Push(int(a), rs.seedKey[i]-shift)
		}
	}
	for {
		u, key, ok := q.Pop()
		if !ok {
			break
		}
		key += shift
		if key > dist[u] {
			continue // stale lazy-deletion entry
		}
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			if nd := key + int64(w[e]); nd < dist[v] {
				dist[v], parent[v] = nd, int32(u)
				q.Push(int(v), nd-shift)
			}
		}
	}
	return true
}
