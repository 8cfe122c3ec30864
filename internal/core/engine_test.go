package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"snd/internal/graph"
	"snd/internal/opinion"
)

func engineTestGraph(n int, seed int64) *graph.Digraph {
	return graph.ScaleFree(graph.ScaleFreeConfig{
		N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: seed,
	})
}

func engineTestStates(n, count, flips int, seed int64) []opinion.State {
	rng := rand.New(rand.NewSource(seed))
	states := make([]opinion.State, count)
	states[0] = randState(n, 0.3, rng)
	for i := 1; i < count; i++ {
		states[i] = perturb(states[i-1], flips, rng)
	}
	return states
}

func engineTestOptions(g *graph.Digraph) []Options {
	def := DefaultOptions()
	clustered := DefaultOptions()
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = i % 16
	}
	clustered.Clusters = labels
	return []Options{def, clustered}
}

// TestEnginePairsMatchesSequential pins the engine's core contract:
// batch results are bit-identical to a sequential Distance loop, for
// singleton and clustered banks.
func TestEnginePairsMatchesSequential(t *testing.T) {
	g := engineTestGraph(300, 7)
	states := engineTestStates(g.N(), 6, 25, 8)
	var pairs []StatePair
	for i := 0; i+1 < len(states); i++ {
		pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
	}
	for oi, opts := range engineTestOptions(g) {
		e := NewEngine(g, opts, EngineConfig{Workers: 4})
		got, err := e.Pairs(context.Background(), pairs)
		if err != nil {
			t.Fatalf("opts %d: Pairs: %v", oi, err)
		}
		for i, p := range pairs {
			want, err := Distance(g, p.A, p.B, opts)
			if err != nil {
				t.Fatalf("opts %d: Distance %d: %v", oi, i, err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("opts %d pair %d: engine %+v != sequential %+v", oi, i, got[i], want)
			}
		}
	}
}

// TestEngineMatrixMatchesSequential checks the deduplicated symmetric
// matrix against pairwise sequential Distance.
func TestEngineMatrixMatchesSequential(t *testing.T) {
	g := engineTestGraph(200, 9)
	states := engineTestStates(g.N(), 5, 20, 10)
	opts := DefaultOptions()
	e := NewEngine(g, opts, EngineConfig{Workers: 3})
	m, err := e.Matrix(context.Background(), states)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	for i := range states {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v, want 0", i, i, m[i][i])
		}
		for j := i + 1; j < len(states); j++ {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d): %v vs %v", i, j, m[i][j], m[j][i])
			}
			want, err := Distance(g, states[i], states[j], opts)
			if err != nil {
				t.Fatalf("Distance(%d,%d): %v", i, j, err)
			}
			if m[i][j] != want.SND {
				t.Errorf("matrix[%d][%d] = %v, sequential = %v", i, j, m[i][j], want.SND)
			}
		}
	}
}

// TestEngineSeriesMatchesSequential checks the parallel series against
// the adjacent-pair Distance loop.
func TestEngineSeriesMatchesSequential(t *testing.T) {
	g := engineTestGraph(250, 11)
	states := engineTestStates(g.N(), 8, 15, 12)
	opts := DefaultOptions()
	e := NewEngine(g, opts, EngineConfig{})
	got, err := e.Series(context.Background(), states)
	if err != nil {
		t.Fatalf("Series: %v", err)
	}
	for i := 0; i+1 < len(states); i++ {
		want, err := Distance(g, states[i], states[i+1], opts)
		if err != nil {
			t.Fatalf("Distance step %d: %v", i, err)
		}
		if got[i] != want.SND {
			t.Errorf("series[%d] = %v, sequential = %v", i, got[i], want.SND)
		}
	}
}

// TestEngineWorkerDeterminism pins bit-identical output across worker
// counts (and therefore across schedulings).
func TestEngineWorkerDeterminism(t *testing.T) {
	g := engineTestGraph(300, 13)
	states := engineTestStates(g.N(), 6, 30, 14)
	var pairs []StatePair
	for i := 0; i+1 < len(states); i++ {
		pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
	}
	opts := DefaultOptions()
	var baseline []Result
	for _, workers := range []int{1, 2, 8} {
		e := NewEngine(g, opts, EngineConfig{Workers: workers})
		got, err := e.Pairs(context.Background(), pairs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("workers=%d results differ from workers=1", workers)
		}
	}
}

// TestEngineCacheDisabledMatches checks the ground-distance cache is
// purely an optimization: disabling it changes nothing.
func TestEngineCacheDisabledMatches(t *testing.T) {
	g := engineTestGraph(250, 15)
	states := engineTestStates(g.N(), 6, 20, 16)
	opts := DefaultOptions()
	cached := NewEngine(g, opts, EngineConfig{Workers: 4})
	uncached := NewEngine(g, opts, EngineConfig{Workers: 4, GroundCacheBytes: -1})
	a, err := cached.Series(context.Background(), states)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	b, err := uncached.Series(context.Background(), states)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cache changed results: %v vs %v", a, b)
	}
	// Exercise the cache-hit path a second time on the same engine.
	c, err := cached.Series(context.Background(), states)
	if err != nil {
		t.Fatalf("cached rerun: %v", err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Errorf("warm cache changed results: %v vs %v", a, c)
	}
}

// TestEngineScratchReuse runs enough batches on one engine that worker
// scratch (rows, flow networks, SSSP buffers) is recycled across terms
// with different reduced-instance sizes.
func TestEngineScratchReuse(t *testing.T) {
	g := engineTestGraph(200, 17)
	rng := rand.New(rand.NewSource(18))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2, GroundCacheBytes: -1})
	base := randState(g.N(), 0.3, rng)
	for _, flips := range []int{2, 50, 5, 120, 1} {
		next := perturb(base, flips, rng)
		got, err := e.Distance(context.Background(), base, next)
		if err != nil {
			t.Fatalf("flips=%d: %v", flips, err)
		}
		want, err := Distance(g, base, next, DefaultOptions())
		if err != nil {
			t.Fatalf("flips=%d sequential: %v", flips, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("flips=%d: engine %+v != sequential %+v", flips, got, want)
		}
		base = next
	}
}

// TestEngineValidation checks batch inputs are validated per pair.
func TestEngineValidation(t *testing.T) {
	g := engineTestGraph(50, 19)
	e := NewEngine(g, DefaultOptions(), EngineConfig{})
	short := opinion.NewState(10)
	ok := opinion.NewState(g.N())
	if _, err := e.Pairs(context.Background(), []StatePair{{A: ok, B: ok}, {A: ok, B: short}}); err == nil {
		t.Error("expected validation error for mismatched state length")
	}
	if _, err := e.Series(context.Background(), []opinion.State{ok}); err == nil {
		t.Error("expected error for single-state series")
	}
	if res, err := e.Pairs(context.Background(), nil); err != nil || res != nil {
		t.Errorf("empty batch: got %v, %v", res, err)
	}
}

// TestEngineMatrixTiny covers the no-pair edge cases.
func TestEngineMatrixTiny(t *testing.T) {
	g := engineTestGraph(50, 21)
	e := NewEngine(g, DefaultOptions(), EngineConfig{})
	st := randState(g.N(), 0.4, rand.New(rand.NewSource(22)))
	m, err := e.Matrix(context.Background(), []opinion.State{st})
	if err != nil {
		t.Fatalf("Matrix(1): %v", err)
	}
	if len(m) != 1 || m[0][0] != 0 {
		t.Errorf("Matrix(1) = %v, want [[0]]", m)
	}
}

// TestHashStateDistinguishes sanity-checks the 128-bit fingerprint.
func TestHashStateDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seen := map[hashKey]bool{}
	st := randState(500, 0.4, rng)
	seen[hashState(st)] = true
	for i := 0; i < 200; i++ {
		mod := perturb(st, 1+rng.Intn(3), rng)
		if mod.DiffCount(st) == 0 {
			continue
		}
		h := hashState(mod)
		if h == hashState(st) {
			t.Fatalf("collision between distinct states at iteration %d", i)
		}
		seen[h] = true
	}
	if hashState(st) != hashState(st.Clone()) {
		t.Error("equal states must hash equal")
	}
}

// TestEngineContextCancellation pins the cancellation contract: a
// cancelled context makes Pairs/Series/Matrix return ctx.Err() (not a
// wrapped term error), both when cancelled up front and mid-batch.
// This test runs under -race in CI, which also checks the cancellation
// paths introduce no worker/main races or deadlocks.
func TestEngineContextCancellation(t *testing.T) {
	g := engineTestGraph(400, 25)
	states := engineTestStates(g.N(), 8, 40, 26)
	var pairs []StatePair
	for i := 0; i+1 < len(states); i++ {
		pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
	}
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 4})

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Pairs(pre, pairs); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Pairs: err = %v, want context.Canceled", err)
	}
	if _, err := e.Series(pre, states); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Series: err = %v, want context.Canceled", err)
	}
	if _, err := e.Matrix(pre, states); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Matrix: err = %v, want context.Canceled", err)
	}

	// Mid-batch: cancel from another goroutine shortly after the batch
	// starts. The batch is far larger than the cancellation latency, so
	// the error must be the context's.
	mid, cancelMid := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancelMid()
		close(done)
	}()
	if _, err := e.Matrix(mid, states); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-batch Matrix: err = %v, want context.Canceled", err)
	}
	<-done

	// An expired deadline surfaces as DeadlineExceeded.
	dl, cancelDl := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelDl()
	<-dl.Done()
	if _, err := e.Pairs(dl, pairs); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline Pairs: err = %v, want context.DeadlineExceeded", err)
	}

	// The engine stays fully usable after cancelled batches.
	got, err := e.Pairs(context.Background(), pairs)
	if err != nil {
		t.Fatalf("Pairs after cancellations: %v", err)
	}
	want, err := Distance(g, pairs[0].A, pairs[0].B, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("post-cancellation result drifted: %+v != %+v", got[0], want)
	}
}

// TestEngineClose pins the Close contract: released cache, structured
// error on further use, idempotence.
func TestEngineClose(t *testing.T) {
	g := engineTestGraph(100, 27)
	states := engineTestStates(g.N(), 3, 10, 28)
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	if _, err := e.Series(context.Background(), states); err != nil {
		t.Fatalf("Series before Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ctx := context.Background()
	if _, err := e.Pairs(ctx, []StatePair{{A: states[0], B: states[1]}}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Pairs after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Distance(ctx, states[0], states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Distance after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Series(ctx, states); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Series after Close: err = %v, want ErrEngineClosed", err)
	}
	// Closedness wins over every other validation, so errors.Is
	// branching on ErrEngineClosed is reliable regardless of input.
	if _, err := e.Series(ctx, states[:1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("short Series after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Matrix(ctx, states[:1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Matrix after Close: err = %v, want ErrEngineClosed", err)
	}
	if !e.Closed() {
		t.Error("Closed() = false after Close")
	}
}

// TestGroundProviderEvictRef checks eviction refunds exactly the
// evicted reference state's bytes and only drops that state's entry.
func TestGroundProviderEvictRef(t *testing.T) {
	g := engineTestGraph(80, 11)
	opts := DefaultOptions().withDefaults()
	p := newGroundProvider(g, opts.Costs, 1<<20, infCost(g.N(), opts.Costs.MaxCost(), opts.EscapeHops))
	budget0 := p.budgetRemaining()
	states := engineTestStates(g.N(), 2, 10, 12)
	hA, hB := hashState(states[0]), hashState(states[1])
	p.weights(hA, states[0], opinion.Positive, false)
	p.row(hA, states[0], opinion.Positive, false, 0, p.weights(hA, states[0], opinion.Positive, false))
	p.row(hA, states[0], opinion.Positive, false, 1, p.weights(hA, states[0], opinion.Positive, false))
	p.weights(hB, states[1], opinion.Negative, false)
	p.row(hB, states[1], opinion.Negative, false, 2, p.weights(hB, states[1], opinion.Negative, false))
	// B retains one forward cost array, one tree, and its state
	// snapshot (the diff base for derivations).
	spentB := int64(g.M()*4 + g.N()*12 + g.N())
	p.evictRef(hA)
	if got := p.budgetRemaining(); got != budget0-spentB {
		t.Errorf("budget after evict = %d, want %d (refund of A's bytes only)", got, budget0-spentB)
	}
	if p.lookup(hA) != nil {
		t.Error("evicted entry still present")
	}
	entB := p.lookup(hB)
	if entB == nil || entB.side[opIdx(opinion.Negative)].fwdW == nil {
		t.Error("unrelated ref's weights were evicted")
	}
	if entB.side[opIdx(opinion.Negative)].trees[treeKey{src: 2}] == nil {
		t.Error("unrelated ref's tree was evicted")
	}
	p.evictRef(hB)
	if got := p.budgetRemaining(); got != budget0 {
		t.Errorf("budget after evicting everything = %d, want full refund %d", got, budget0)
	}
}

// TestEngineEvictRefKeepsResults checks eviction is purely a memory
// decision: values are unchanged after evicting a reference state.
func TestEngineEvictRefKeepsResults(t *testing.T) {
	g := engineTestGraph(150, 29)
	states := engineTestStates(g.N(), 4, 15, 30)
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	ctx := context.Background()
	before, err := e.Series(ctx, states)
	if err != nil {
		t.Fatal(err)
	}
	e.EvictRef(states[0])
	e.EvictRef(states[1])
	after, err := e.Series(ctx, states)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("eviction changed results: %v vs %v", before, after)
	}
}
