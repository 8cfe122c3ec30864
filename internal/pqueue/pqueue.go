// Package pqueue provides monotone min-priority queues used by the
// shortest-path algorithms in this repository.
//
// All queues share lazy-deletion semantics: DecreaseKey is expressed by
// pushing the same item again with a smaller key, and Pop may therefore
// return stale (item, key) pairs. Dijkstra-style callers keep their own
// distance array and skip a popped pair whose key exceeds the item's
// current distance. This keeps all three implementations uniform and
// allocation-free on the hot path.
//
// Three implementations are provided, mirroring the substrate choices in
// Amelkin et al. (ICDE'17) and Ahuja, Mehlhorn, Orlin, Tarjan (JACM'90).
// Callers construct one directly; package sssp picks per run from the
// edge-cost bound:
//
//   - BinaryHeap: the classic array heap, O(log n) per operation. The
//     paper's released implementation uses this.
//   - Dial: a circular bucket queue for integer keys whose pending spread
//     never exceeds the maximum edge cost C, O(1) push and amortized
//     O(C) scan per pop. This is the natural fit for Assumption 2
//     (integer costs bounded by U).
//   - Radix: a monotone radix heap, O(log C) amortized per operation,
//     the structure behind the O(m + n*sqrt(log U)) bound cited by the
//     paper's Theorem 4.
package pqueue

// MinQueue is a monotone min-priority queue over (item, key) pairs.
//
// Keys passed to Push must be non-negative. Implementations other than
// BinaryHeap additionally require monotonicity: no key pushed after a Pop
// may be smaller than the last popped key.
type MinQueue interface {
	// Push inserts item with the given key. Pushing an item that is
	// already queued expresses a decrease-key; the stale entry remains
	// and is returned (later) by Pop.
	Push(item int, key int64)
	// Pop removes and returns a pair with the minimum key. ok is false
	// when the queue is empty.
	Pop() (item int, key int64, ok bool)
	// Len returns the number of queued entries, counting stale ones.
	Len() int
	// Reset restores the queue to its empty state for reuse.
	Reset()
}
