package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

var kinds = []Kind{KindBinary, KindDial, KindRadix}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindBinary: "binary", KindDial: "dial", KindRadix: "radix", Kind(99): "unknown"}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

func TestPushPopSorted(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			q := New(k, 100, 16)
			keys := []int64{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
			for i, key := range keys {
				q.Push(i, key)
			}
			if q.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", q.Len(), len(keys))
			}
			var got []int64
			for {
				_, key, ok := q.Pop()
				if !ok {
					break
				}
				got = append(got, key)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Errorf("popped keys not sorted: %v", got)
			}
			if len(got) != len(keys) {
				t.Errorf("popped %d keys, want %d", len(got), len(keys))
			}
		})
	}
}

func TestEmptyPop(t *testing.T) {
	for _, k := range kinds {
		q := New(k, 10, 0)
		if _, _, ok := q.Pop(); ok {
			t.Errorf("%v: Pop on empty queue reported ok", k)
		}
	}
}

func TestReset(t *testing.T) {
	for _, k := range kinds {
		q := New(k, 10, 4)
		q.Push(1, 5)
		q.Push(2, 3)
		q.Reset()
		if q.Len() != 0 {
			t.Errorf("%v: Len after Reset = %d", k, q.Len())
		}
		q.Push(7, 2)
		item, key, ok := q.Pop()
		if !ok || item != 7 || key != 2 {
			t.Errorf("%v: Pop after Reset = (%d,%d,%v), want (7,2,true)", k, item, key, ok)
		}
	}
}

// TestMonotoneAgainstBinary drives all three queues through an identical
// Dijkstra-like monotone workload and checks that the popped key
// sequences coincide (items may differ across equal keys).
func TestMonotoneAgainstBinary(t *testing.T) {
	const maxCost = 50
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ref := New(KindBinary, maxCost, 0)
		dial := New(KindDial, maxCost, 0)
		radix := New(KindRadix, maxCost, 0)
		push := func(item int, key int64) {
			ref.Push(item, key)
			dial.Push(item, key)
			radix.Push(item, key)
		}
		// Seed a few roots at key 0, then interleave pops with pushes
		// of key = lastPopped + rand(0..maxCost).
		for i := 0; i < 3; i++ {
			push(i, 0)
		}
		next := 3
		var last int64
		for step := 0; step < 500; step++ {
			if ref.Len() == 0 {
				break
			}
			_, k1, _ := ref.Pop()
			_, k2, _ := dial.Pop()
			_, k3, _ := radix.Pop()
			if k1 != k2 || k1 != k3 {
				t.Fatalf("trial %d step %d: keys diverge binary=%d dial=%d radix=%d", trial, step, k1, k2, k3)
			}
			last = k1
			for j := rng.Intn(3); j > 0; j-- {
				push(next, last+int64(rng.Intn(maxCost+1)))
				next++
			}
		}
	}
}

// TestDialWrapsAgainstBinary drives a Dial with a narrow window through
// thousands of trips around its buckets, against the binary heap: the
// popped keys must agree, and every popped item must come back with
// the key it was pushed with (a Dial bucket stores no key, so a key
// derived from the wrong bucket count would show here). The queue also
// drains and refills mid-run, and resets once.
func TestDialWrapsAgainstBinary(t *testing.T) {
	const maxCost = 3
	rng := rand.New(rand.NewSource(7))
	ref, dial := New(KindBinary, maxCost, 0), NewDial(maxCost, 0)
	pushed := map[int]int64{}
	next := 0
	push := func(key int64) {
		ref.Push(next, key)
		dial.Push(next, key)
		pushed[next] = key
		next++
	}
	var last, laps int64
	for step := 0; step < 40000; step++ {
		if step == 20000 {
			laps += last / (maxCost + 1)
			ref.Reset()
			dial.Reset()
			last = 0
		}
		if ref.Len() == 0 {
			push(last + int64(rng.Intn(maxCost+1)))
		}
		_, k1, _ := ref.Pop()
		item, k2, ok := dial.Pop()
		if !ok || k1 != k2 || pushed[item] != k2 {
			t.Fatalf("step %d: binary key %d, dial item %d key %d (pushed with %d, ok %v)",
				step, k1, item, k2, pushed[item], ok)
		}
		last = k1
		for j := rng.Intn(3); j > 0; j-- {
			push(last + int64(rng.Intn(maxCost+1)))
		}
	}
	if laps += last / (maxCost + 1); laps < 500 {
		t.Fatalf("the window wrapped only %d times", laps)
	}
}

func TestDialWindowPanics(t *testing.T) {
	q := NewDial(5, 0)
	q.Push(0, 3)
	if _, _, ok := q.Pop(); !ok {
		t.Fatal("expected pop")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic pushing key below monotone floor")
		}
	}()
	q.Push(1, 1) // below last popped key 3
}

func TestRadixMonotonePanics(t *testing.T) {
	q := NewRadix(0)
	q.Push(0, 7)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Error("expected panic pushing key below monotone floor")
		}
	}()
	q.Push(1, 2)
}

// TestQuickHeapProperty: for any batch of small non-negative keys pushed
// before any pop, each queue pops them in non-decreasing order and
// returns every item exactly once.
func TestQuickHeapProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		keys := make([]int64, len(raw))
		for i, v := range raw {
			keys[i] = int64(v % 128)
		}
		for _, k := range kinds {
			q := New(k, 128, len(keys))
			for i, key := range keys {
				q.Push(i, key)
			}
			seen := make(map[int]bool, len(keys))
			prev := int64(-1)
			for {
				item, key, ok := q.Pop()
				if !ok {
					break
				}
				if key < prev || seen[item] {
					return false
				}
				prev = key
				seen[item] = true
			}
			if len(seen) != len(keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func benchHeap(b *testing.B, k Kind) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := New(k, 64, n)
		for j, key := range keys {
			q.Push(j, key)
		}
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}

func BenchmarkBinaryHeap(b *testing.B) { benchHeap(b, KindBinary) }
func BenchmarkDial(b *testing.B)       { benchHeap(b, KindDial) }
func BenchmarkRadix(b *testing.B)      { benchHeap(b, KindRadix) }
