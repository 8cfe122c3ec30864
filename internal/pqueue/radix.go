package pqueue

import "math/bits"

// Radix is a monotone radix heap (Ahuja, Mehlhorn, Orlin, Tarjan,
// JACM'90). Keys are bucketed by the position of the highest bit in
// which they differ from the last popped key, giving amortized O(log C)
// operations where C bounds the key spread. It is the heap behind the
// O(m + n*sqrt(log U)) single-source shortest path bound cited by the
// paper's Theorem 4 (here without the Fibonacci-heap coupling).
type Radix struct {
	buckets [65][]entry
	last    int64 // last popped key; all pending keys are >= last
	size    int
}

type entry struct {
	item int
	key  int64
}

// NewRadix returns an empty radix heap. hint is unused (buckets grow on
// demand) and retained for signature symmetry.
func NewRadix(hint int) *Radix {
	return &Radix{}
}

// Len returns the number of queued entries.
func (r *Radix) Len() int { return r.size }

// Reset empties the heap, retaining bucket capacity.
func (r *Radix) Reset() {
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
	r.last, r.size = 0, 0
}

func (r *Radix) bucketOf(key int64) int {
	if key == r.last {
		return 0
	}
	return bits.Len64(uint64(key ^ r.last))
}

// Push inserts item with the given key. The key must be >= the most
// recently popped key (monotone heap).
func (r *Radix) Push(item int, key int64) {
	if key < r.last {
		panic("pqueue: Radix key below monotone floor")
	}
	b := r.bucketOf(key)
	r.buckets[b] = append(r.buckets[b], entry{item, key})
	r.size++
}

// Pop removes and returns a minimum-key pair. When bucket 0 (keys equal
// to the current floor) is empty, the first non-empty bucket is drained
// and its entries are redistributed against the new, larger floor; each
// entry can only ever move to smaller buckets, which gives the amortized
// bound.
func (r *Radix) Pop() (item int, key int64, ok bool) {
	if r.size == 0 {
		return 0, 0, false
	}
	if len(r.buckets[0]) == 0 {
		// Locate the first non-empty bucket and its minimum key.
		b := 1
		for len(r.buckets[b]) == 0 {
			b++
		}
		minKey := r.buckets[b][0].key
		for _, e := range r.buckets[b][1:] {
			if e.key < minKey {
				minKey = e.key
			}
		}
		moved := r.buckets[b]
		r.last = minKey
		for _, e := range moved {
			nb := r.bucketOf(e.key)
			r.buckets[nb] = append(r.buckets[nb], e)
		}
		// Every entry moved to a bucket below b, so the drained slice
		// keeps its backing array for reuse instead of regrowing.
		r.buckets[b] = moved[:0]
	}
	b0 := r.buckets[0]
	e := b0[len(b0)-1]
	r.buckets[0] = b0[:len(b0)-1]
	r.size--
	r.last = e.key
	return e.item, e.key, true
}
