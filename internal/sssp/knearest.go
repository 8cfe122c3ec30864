package sssp

import (
	"math/bits"

	"snd/internal/graph"
	"snd/internal/pqueue"
)

// KNearestScratch holds the reusable buffers of DijkstraKNearestInto:
// per vertex the set of columns it accepted (a bit mask of words
// words), its label count and k-th key, and its newest queued entry;
// per queued entry its vertex and its column mask. Between runs every
// vertex reads no label and no entry; a run resets only the vertices
// it touched. The zero value is ready to use; a KNearestScratch must
// not be shared between concurrent runs.
type KNearestScratch struct {
	fr      Frontier
	words   int
	acc     []uint64 // words per vertex: the columns it accepted
	nodes   []kNode
	row     []int32 // per vertex: the first target index naming it, -1 if none
	entV    []int32 // per entry: its vertex
	entMask []uint64
	free    []int32  // entries popped, for reuse
	cur     []uint64 // the popped entry's new columns
	nxt     []uint64 // the part of them a neighbor still lacks
	touched []int32
}

// kNode is one vertex's search state.
type kNode struct {
	kth     int64 // key of its k-th label; Unreachable before
	pendKey int64 // key of its newest queued entry; -1 while untouched
	count   int32 // labels accepted
	pend    int32 // its newest queued entry, -1 once popped
}

func (ks *KNearestScratch) ensure(n, words int) {
	if len(ks.nodes) < n {
		ks.nodes = make([]kNode, n)
		ks.row = make([]int32, n)
		for v := range ks.nodes {
			ks.nodes[v] = kNode{kth: Unreachable, pendKey: -1, pend: -1}
			ks.row[v] = -1
		}
		ks.words = 0 // the masks must grow with the vertices
	}
	if ks.words != words {
		ks.words = words
		ks.acc = make([]uint64, len(ks.nodes)*words)
		ks.cur = make([]uint64, words)
		ks.nxt = make([]uint64, words)
	}
}

// reset returns every vertex the run touched, and the targets, to
// their between-run values.
func (ks *KNearestScratch) reset(targets []int32) {
	for _, v := range ks.touched {
		ks.nodes[v] = kNode{kth: Unreachable, pendKey: -1, pend: -1}
		clear(ks.acc[int(v)*ks.words : int(v+1)*ks.words])
	}
	for _, t := range targets {
		ks.row[t] = -1
	}
	ks.touched = ks.touched[:0]
	ks.entV, ks.entMask, ks.free = ks.entV[:0], ks.entMask[:0], ks.free[:0]
}

// push queues columns mask at vertex x at key d. A push at the key of
// x's newest queued entry joins that entry; otherwise it takes a
// popped entry's place, or a new one.
func (ks *KNearestScratch) push(q pqueue.MinQueue, x int32, d int64, mask []uint64) {
	xn := &ks.nodes[x]
	if xn.pendKey < 0 {
		ks.touched = append(ks.touched, x)
	}
	if xn.pend >= 0 && xn.pendKey == d {
		m := ks.entMask[int(xn.pend)*ks.words:]
		for i, b := range mask {
			m[i] |= b
		}
		return
	}
	var e int32
	if f := len(ks.free); f > 0 {
		e = ks.free[f-1]
		ks.free = ks.free[:f-1]
		ks.entV[e] = x
		copy(ks.entMask[int(e)*ks.words:], mask)
	} else {
		e = int32(len(ks.entV))
		ks.entV = append(ks.entV, x)
		ks.entMask = append(ks.entMask, mask...)
	}
	xn.pend, xn.pendKey = e, d
	q.Push(int(e), d)
}

// DijkstraKNearestInto is the k-nearest-facility variant of Dijkstra:
// one multi-source search that finds, for every target, its k nearest
// columns. Source srcs[i] belongs to column srcCols[i] and starts at
// distance 0; a column's distance to a vertex is the minimum over its
// sources. Every vertex keeps up to k labels (column, distance) from
// distinct columns, accepted in distance order, and accepts any further
// column at its k-th key: ties at that key are kept, which is what
// makes every label exact. A vertex's k-th key is its radius: the
// columns within it are exactly the accepted labels, at their exact
// distances, and every other column lies farther.
//
// On return out[i][c] holds column c's distance to targets[i] for
// every accepted label and Unreachable elsewhere. radius[i] is the
// target's k-th key, so every column reading Unreachable lies past it;
// it is Unreachable where the target accepted fewer than k labels, or
// every column, and then the row is complete: every column past the
// cutoff, or not reaching the target, reads Unreachable.
//
// The search stops once every target holds k labels and that key level
// is finished, or once the frontier passes cutoff. Labels travel in
// bit masks: a queue entry carries every column a vertex reached at
// one key, and pushes to a vertex at the key of its newest queued
// entry join that entry. Each vertex then settles one entry per key at
// which it accepts columns, and relaxes its out-edges once per such
// entry rather than once per label; ties, which the k-th key keeps,
// cost a bit each. An entry is ceil(nCols/64) words plus its vertex,
// and popped entries are reused, so the queue's memory follows the
// entries in flight, not the pushes.
//
// This is the fan-out of the Theorem 4 terms whose sources outnumber
// their columns: over the transpose graph, every column's entities (an
// opposite user, or every member of a bank) are the sources, and the
// term's sources are the targets; one search replaces a run per
// column. A source may appear several times, in one column or in
// several (a user can be an opposite user and a bank member); targets
// may repeat. maxCost must bound every edge cost (it picks the run's
// queue).
var DebugCounters [4]int

func DijkstraKNearestInto(g *graph.Digraph, w []int32, srcs, srcCols []int32, nCols int, targets []int32, k int, maxCost, cutoff int64, out [][]int64, radius []int64, ks *KNearestScratch) {
	n := g.N()
	if len(w) != g.M() {
		panic("sssp: weight array not aligned with graph edges")
	}
	if len(srcCols) != len(srcs) {
		panic("sssp: column map not aligned with sources")
	}
	if len(out) != len(targets) || len(radius) != len(targets) {
		panic("sssp: output rows not aligned with targets")
	}
	if k < 1 {
		panic("sssp: k must be positive")
	}
	for i, s := range srcs {
		if s < 0 || int(s) >= n || srcCols[i] < 0 || int(srcCols[i]) >= nCols {
			panic("sssp: source or column out of range")
		}
	}
	for i, t := range targets {
		if t < 0 || int(t) >= n {
			panic("sssp: target out of range")
		}
		if len(out[i]) != nCols {
			panic("sssp: output row not aligned with columns")
		}
	}
	words := (nCols + 63) / 64
	ks.ensure(n, words)
	defer ks.reset(targets)
	// remaining counts the distinct targets holding fewer than k labels.
	remaining := 0
	for i, t := range targets {
		for c := range out[i] {
			out[i][c] = Unreachable
		}
		if ks.row[t] < 0 {
			ks.row[t] = int32(i)
			remaining++
		}
	}
	q, _ := ks.fr.acquire(0, maxCost, n)
	cur := ks.cur
	if remaining > 0 && cutoff >= 0 {
		for i, s := range srcs {
			clear(cur)
			cur[srcCols[i]/64] = 1 << (srcCols[i] % 64)
			ks.push(q, s, 0, cur)
		}
	}
	// stop is the last key the search settles: the cutoff, then the key
	// at which the last target filled up; nothing past it is pushed.
	stop, k32 := cutoff, int32(k)
	for {
		item, key, ok := q.Pop()
		if !ok || key > stop {
			break
		}
		e := int32(item)
		v := ks.entV[e]
		vn := &ks.nodes[v]
		if vn.pend == e {
			vn.pend = -1
		}
		ks.free = append(ks.free, e)
		if vn.count >= k32 && key > vn.kth {
			continue // k nearer columns are settled
		}
		// The entry's columns that v has not accepted yet settle now:
		// every earlier key is finished, and within k or at the k-th
		// key every column is accepted.
		acc := ks.acc[int(v)*words : int(v+1)*words]
		added := 0
		for i, m := range ks.entMask[int(e)*words : int(e+1)*words] {
			cur[i] = m &^ acc[i]
			acc[i] |= cur[i]
			added += bits.OnesCount64(cur[i])
		}
		if added == 0 {
			continue
		}
		if r := ks.row[v]; r >= 0 {
			row := out[r]
			for i, m := range cur {
				for ; m != 0; m &= m - 1 {
					row[i*64+bits.TrailingZeros64(m)] = key
				}
			}
		}
		if vn.count < k32 && vn.count+int32(added) >= k32 {
			vn.kth = key
			if ks.row[v] >= 0 {
				if remaining--; remaining == 0 {
					stop = key // finish this key level, push nothing past it
				}
			}
		}
		vn.count += int32(added)
		lo, hi := g.EdgeRange(int(v))
		for e := lo; e < hi; e++ {
			x := g.Head(e)
			nd := key + int64(w[e])
			if nd > stop {
				continue
			}
			if xn := &ks.nodes[x]; xn.count >= k32 && nd > xn.kth {
				continue
			}
			xacc, nxt := ks.acc[int(x)*words:int(x+1)*words], ks.nxt
			var any uint64
			for i := range cur {
				nxt[i] = cur[i] &^ xacc[i]
				any |= nxt[i]
			}
			if any != 0 {
				ks.push(q, x, nd, nxt)
			}
		}
	}
	for i, t := range targets {
		r := ks.row[t]
		if int(r) != i {
			copy(out[i], out[r])
		}
		radius[i] = Unreachable
		if tn := ks.nodes[t]; tn.count >= k32 && int(tn.count) < nCols {
			radius[i] = tn.kth
		}
	}
}
