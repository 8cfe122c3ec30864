package serve

import (
	"testing"
	"time"
)

// TestLatencyBucketsCoverSlowQueries pins that minute-scale queries
// land in a finite latency bucket rather than only in +Inf, and that
// the cumulative bucket counts never decrease.
func TestLatencyBucketsCoverSlowQueries(t *testing.T) {
	m := newMetrics()
	for _, d := range []time.Duration{
		300 * time.Microsecond, 40 * time.Millisecond, 3 * time.Second,
		18 * time.Second, 127 * time.Second, 300 * time.Second,
	} {
		m.observe("query", 200, d)
	}
	h := m.latencies["query"]
	slow := -1
	for i, le := range latencyBuckets {
		if i > 0 && h.counts[i] < h.counts[i-1] {
			t.Fatalf("bucket le=%v count %d below le=%v count %d", le, h.counts[i], latencyBuckets[i-1], h.counts[i-1])
		}
		if slow < 0 && le >= 127 {
			slow = i
		}
	}
	if slow < 0 {
		t.Fatalf("largest finite bucket %v s cannot hold a 127 s query", latencyBuckets[len(latencyBuckets)-1])
	}
	if h.counts[slow] != 5 {
		t.Fatalf("bucket le=%v holds %d observations, want the 5 at or below 127 s", latencyBuckets[slow], h.counts[slow])
	}
	if last := h.counts[len(h.counts)-1]; last != h.count {
		t.Fatalf("largest finite bucket holds %d of %d observations; a 300 s query fell into +Inf", last, h.count)
	}
}
