package pqueue

// Dial is Dial's circular bucket queue for monotone integer keys.
//
// It requires that every pending key lies within [last, last+C] where
// last is the most recently popped key and C is the maximum edge cost
// supplied at construction. Dijkstra with non-negative integer edge
// costs bounded by C satisfies this invariant, which is exactly the
// paper's Assumption 2 (costs are positive integers bounded by U).
//
// Under that window the C+1 buckets hold C+1 consecutive keys, one key
// each, so a bucket stores bare items and Pop derives the key from last
// and the number of buckets it advanced: an entry is 4 bytes, not 16.
// Items must fit in an int32.
type Dial struct {
	buckets [][]int32
	c       int64 // bucket count - 1 == max key spread
	cursor  int64 // bucket index of last
	last    int64 // last popped key (monotone floor)
	size    int
}

// NewDial returns an empty Dial queue supporting key spreads up to
// maxEdgeCost; hint sizes nothing (buckets grow on demand).
func NewDial(maxEdgeCost int64, hint int) *Dial {
	if maxEdgeCost < 1 {
		maxEdgeCost = 1
	}
	return &Dial{
		buckets: make([][]int32, maxEdgeCost+1),
		c:       maxEdgeCost,
	}
}

// Len returns the number of queued entries.
func (d *Dial) Len() int { return d.size }

// Reset empties the queue, retaining bucket capacity.
func (d *Dial) Reset() {
	for i := range d.buckets {
		d.buckets[i] = d.buckets[i][:0]
	}
	d.cursor, d.last, d.size = 0, 0, 0
}

// Push inserts item with the given key. The key must satisfy
// last <= key <= last+C where last is the most recently popped key.
func (d *Dial) Push(item int, key int64) {
	if key < d.last || key > d.last+d.c {
		panic("pqueue: Dial key outside monotone window")
	}
	b := key % (d.c + 1)
	d.buckets[b] = append(d.buckets[b], int32(item))
	d.size++
}

// Pop removes and returns a minimum-key pair by scanning buckets
// circularly from the last minimum; each bucket it steps over raises
// the key by one.
func (d *Dial) Pop() (item int, key int64, ok bool) {
	if d.size == 0 {
		return 0, 0, false
	}
	n := d.c + 1
	for {
		b := d.buckets[d.cursor]
		if len(b) > 0 {
			// Every entry of the bucket has key last, so LIFO order
			// within it is fine.
			d.buckets[d.cursor] = b[:len(b)-1]
			d.size--
			return int(b[len(b)-1]), d.last, true
		}
		d.cursor++
		d.last++
		if d.cursor == n {
			d.cursor = 0
		}
	}
}
