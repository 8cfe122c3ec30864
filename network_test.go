package snd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func networkTestFixture(t *testing.T, n, count int, seed int64) (*Graph, []State) {
	t.Helper()
	g := ScaleFreeGraph(ScaleFreeConfig{N: n, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.3, Seed: seed})
	ev := NewEvolution(g, n/10, seed+1)
	states := []State{ev.State()}
	for i := 1; i < count; i++ {
		states = append(states, ev.Step(0.2, 0.02))
	}
	return g, states
}

// TestNetworkStructuredErrors checks every structured error is
// reachable through the public API and detectable with errors.Is.
func TestNetworkStructuredErrors(t *testing.T) {
	g, states := networkTestFixture(t, 60, 3, 33)
	ctx := context.Background()
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	ok := states[0]

	// ErrStateSize: wrong-length state, via batch and delta paths.
	short := NewState(10)
	if _, err := nw.Distance(ctx, ok, short); !errors.Is(err, ErrStateSize) {
		t.Errorf("short state: err = %v, want ErrStateSize", err)
	}
	if _, err := nw.ApplyFrom(short, nil); !errors.Is(err, ErrStateSize) {
		t.Errorf("ApplyFrom short: err = %v, want ErrStateSize", err)
	}

	// ErrInvalidOpinion: out-of-domain opinion value.
	bad := ok.Clone()
	bad[0] = Opinion(5)
	if _, err := nw.Distance(ctx, ok, bad); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("bad opinion: err = %v, want ErrInvalidOpinion", err)
	}
	if _, err := nw.ApplyFrom(bad, nil); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("ApplyFrom bad opinion: err = %v, want ErrInvalidOpinion", err)
	}

	// ErrClusterLabels: clusters of the wrong length.
	badOpts := DefaultOptions()
	badOpts.Clusters = []int{0, 1}
	cnw := NewNetwork(g, badOpts, EngineConfig{})
	defer cnw.Close()
	if _, err := cnw.Distance(ctx, ok, states[1]); !errors.Is(err, ErrClusterLabels) {
		t.Errorf("bad clusters: err = %v, want ErrClusterLabels", err)
	}

	// ErrShortSeries: series and anomaly pipelines with < 2 states.
	if _, err := nw.Series(ctx, states[:1]); !errors.Is(err, ErrShortSeries) {
		t.Errorf("1-state Series: err = %v, want ErrShortSeries", err)
	}
	if _, err := nw.DetectAnomalies(ctx, nil); !errors.Is(err, ErrShortSeries) {
		t.Errorf("empty DetectAnomalies: err = %v, want ErrShortSeries", err)
	}
	if _, err := DetectAnomalies(nil, HammingMeasure(g.N())); !errors.Is(err, ErrShortSeries) {
		t.Errorf("free DetectAnomalies(nil): err = %v, want ErrShortSeries", err)
	}
	if _, err := DetectAnomalies(states[:1], HammingMeasure(g.N())); !errors.Is(err, ErrShortSeries) {
		t.Errorf("free DetectAnomalies(1 state): err = %v, want ErrShortSeries", err)
	}

	// Delta validation: out-of-range user and invalid opinion.
	if _, err := nw.ApplyFrom(ok, StateDelta{{User: g.N(), Opinion: Positive}}); !errors.Is(err, ErrStateSize) {
		t.Errorf("delta out of range: err = %v, want ErrStateSize", err)
	}
	if _, err := nw.ApplyFrom(ok, StateDelta{{User: 0, Opinion: Opinion(-3)}}); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("delta bad opinion: err = %v, want ErrInvalidOpinion", err)
	}

	// ErrEngineClosed: the whole handle fails after Close.
	closed := NewNetwork(g, DefaultOptions(), EngineConfig{})
	closed.Close()
	if _, err := closed.Distance(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Distance: err = %v, want ErrEngineClosed", err)
	}
	if _, _, err := closed.Explain(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Explain: err = %v, want ErrEngineClosed", err)
	}
	if _, err := closed.ApplyFrom(ok, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed ApplyFrom: err = %v, want ErrEngineClosed", err)
	}
	if _, _, err := closed.StepFrom(ctx, ok, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed StepFrom: err = %v, want ErrEngineClosed", err)
	}

	// Closing the exposed engine closes the whole handle (the engine is
	// the single source of truth for closedness).
	viaEngine := NewNetwork(g, DefaultOptions(), EngineConfig{})
	viaEngine.Engine().Close()
	if _, _, err := viaEngine.Explain(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Explain after Engine().Close(): err = %v, want ErrEngineClosed", err)
	}
	if _, err := viaEngine.ApplyFrom(ok, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("ApplyFrom after Engine().Close(): err = %v, want ErrEngineClosed", err)
	}
}

// TestNetworkCancellation checks ctx.Err() propagation through the
// handle's batch methods and StepFrom.
func TestNetworkCancellation(t *testing.T) {
	g, states := networkTestFixture(t, 120, 4, 35)
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.Pairs(cancelled, []StatePair{{A: states[0], B: states[1]}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Pairs: err = %v, want context.Canceled", err)
	}
	if _, err := nw.Series(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("Series: err = %v, want context.Canceled", err)
	}
	if _, err := nw.Matrix(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("Matrix: err = %v, want context.Canceled", err)
	}
	if _, err := nw.DetectAnomalies(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("DetectAnomalies: err = %v, want context.Canceled", err)
	}
	cur, _, err := nw.StepFrom(cancelled, states[0], StateDelta{{User: 0, Opinion: Positive}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("StepFrom: err = %v, want context.Canceled", err)
	}
	// StepFrom returns the advanced state alongside the cancelled
	// distance evaluation (documented), and the handle keeps working.
	if cur == nil || cur[0] != Positive {
		t.Fatal("cancelled StepFrom did not return the advanced state")
	}
	if _, _, err := nw.StepFrom(context.Background(), cur, StateDelta{{User: 1, Opinion: Negative}}); err != nil {
		t.Errorf("StepFrom after cancellation: %v", err)
	}
}

// TestNetworkDeltaRoundTrip pins the incremental-state layer against
// full-state recomputation: a delta stream must produce exactly the
// states — and exactly the distances — that shipping every full state
// would.
func TestNetworkDeltaRoundTrip(t *testing.T) {
	g, states := networkTestFixture(t, 130, 10, 37)
	ctx := context.Background()
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	// 9 ticks of deltas exercise the provider's tracked window (states
	// scroll through it, refunding their retained bytes).
	cur := states[0]
	for i := 1; i < len(states); i++ {
		var delta StateDelta
		prev, full := states[i-1], states[i]
		for u := range full {
			if full[u] != prev[u] {
				delta = append(delta, OpinionChange{User: u, Opinion: full[u]})
			}
		}
		next, got, err := nw.StepFrom(ctx, cur, delta)
		if err != nil {
			t.Fatalf("StepFrom %d: %v", i, err)
		}
		want, err := freshDistance(g, prev, full, DefaultOptions())
		if err != nil {
			t.Fatalf("full recompute %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tick %d: StepFrom %+v != full-state Distance %+v", i, got, want)
		}
		if next.DiffCount(full) != 0 {
			t.Errorf("tick %d: stepped state diverged from full state", i)
		}
		cur = next
	}
	// Quiet ticks: an empty delta is a zero-distance self-transition
	// and must not disturb the state (its cache entries stay live —
	// eviction skips content still in the window).
	for i := 0; i < 6; i++ {
		next, res, err := nw.StepFrom(ctx, cur, nil)
		if err != nil {
			t.Fatalf("empty StepFrom %d: %v", i, err)
		}
		if res.SND != 0 || res.NDelta != 0 {
			t.Errorf("empty StepFrom %d: SND=%v NDelta=%d, want zeros", i, res.SND, res.NDelta)
		}
		cur = next
	}
	if cur.DiffCount(states[len(states)-1]) != 0 {
		t.Error("empty StepFroms changed the state")
	}

	// ApplyFrom (without distance) also matches, and duplicate changes
	// resolve last-wins.
	rng := rand.New(rand.NewSource(39))
	u := rng.Intn(g.N())
	next, err := nw.ApplyFrom(cur, StateDelta{
		{User: u, Opinion: Negative},
		{User: u, Opinion: Positive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next[u] != Positive {
		t.Errorf("duplicate delta entries: got %v, want last-wins Positive", next[u])
	}
	// States handed in stay valid: the input must still equal
	// states[len-1], and the result differ from it at most in u.
	if cur.DiffCount(states[len(states)-1]) != 0 {
		t.Error("ApplyFrom mutated the state it should have copied")
	}
	if next.DiffCount(cur) > 1 {
		t.Error("ApplyFrom changed more than the delta")
	}
}
