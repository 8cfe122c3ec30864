package sssp

import "snd/internal/pqueue"

// autoDialLimit is the largest edge-cost bound for which a run still
// buckets: past it Dial's O(maxCost) empty-bucket scans and Reset cost
// outweigh the O(1) pushes (measured in BENCH_sssp.json; the SND ground
// costs of Assumption 2 sit far below it).
const autoDialLimit = 4096

// queueKind names the queue a Frontier hands out.
type queueKind uint8

const (
	queueByCost queueKind = iota // the cost rule of acquire
	queueBinary
	queueDial
	queueRadix
)

// Frontier pools the priority queues the shortest-path runs of this
// package draw from — full Dijkstra, the goal-pruned Dijkstra of
// DijkstraGoalsInto, and the re-settling pass of RepairInto — so hot
// paths stop paying a queue allocation (for Dial, O(maxCost) bucket
// headers) per single-source run. The zero value is ready to use; a
// Frontier must not be shared between concurrent runs.
type Frontier struct {
	heap  *pqueue.BinaryHeap
	radix *pqueue.Radix
	dial  *pqueue.Dial
	dialC int64
	// pin overrides the cost rule with one queue. Only the package
	// tests and per-queue benchmarks set it; Dial still yields to the
	// binary heap when its window would be too wide.
	pin queueKind
}

// binary returns the pooled binary heap, reset. It backs callers that
// need no monotone invariant (e.g. RepairInto's candidate resolution).
func (f *Frontier) binary() *pqueue.BinaryHeap {
	if f.heap == nil {
		f.heap = pqueue.NewBinaryHeap(64)
	}
	f.heap.Reset()
	return f.heap
}

// acquire returns a reset queue for a monotone run seeded with keys
// spanning [minSeed, minSeed+spread] whose relaxations each add at most
// maxCost, which the caller vouches bounds every edge cost. Plain
// Dijkstra-from-one-source callers pass spread 0.
//
// The queue follows the cost bound. While 1 <= maxCost <= autoDialLimit
// it is Dial's bucket queue, unless the bucket window would be too
// wide, in which case the binary heap serves; past the limit (or for
// an all-zero bound) it is the radix heap. Dial's invariant (pending
// keys within [last, last+C]) only holds after shifting keys down by
// the minimum seed and sizing the window to cover the seed spread plus
// one edge relaxation; shift reports whether the caller must apply
// that shift (true only when the returned queue is a Dial). The Dial is
// pooled at the largest window seen (rounded up to amortize regrowth);
// the other queues are reused as-is.
func (f *Frontier) acquire(spread, maxCost int64, n int) (q pqueue.MinQueue, shift bool) {
	kind := f.pin
	if kind == queueByCost {
		kind = queueRadix
		if maxCost >= 1 && maxCost <= autoDialLimit {
			kind = queueDial
		}
	}
	if c := spread + maxCost; kind == queueDial && c <= 4*int64(n)+64 {
		if f.dial == nil || f.dialC < c {
			grow := 2 * f.dialC
			if grow < c {
				grow = c
			}
			f.dial = pqueue.NewDial(grow, 64)
			f.dialC = grow
		}
		f.dial.Reset()
		return f.dial, true
	}
	if kind == queueRadix {
		if f.radix == nil {
			f.radix = pqueue.NewRadix(64)
		}
		f.radix.Reset()
		return f.radix, false
	}
	return f.binary(), false
}
