package snd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/opinion"
)

// deltaFor returns the StateDelta transforming prev into next.
func deltaFor(prev, next State) StateDelta {
	var d StateDelta
	for u := range next {
		if next[u] != prev[u] {
			d = append(d, OpinionChange{User: u, Opinion: next[u]})
		}
	}
	return d
}

// TestStepDeltaSequencesMatchFullRecompute is the end-to-end property
// test of the incremental pipeline: 200+ random delta sequences driven
// through Network.Step (whose ground costs are patched and whose
// shortest-path trees are repaired from the previous tick) must return
// distances bit-identical to a provider-free full recomputation of
// every tick. Deltas are drawn from a small volatile-user pool so
// sources recur and the repair path — not just the fresh-Dijkstra path
// — carries most ticks.
func TestStepDeltaSequencesMatchFullRecompute(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4242))
	totalDeltas := 0
	for seq := 0; totalDeltas < 210; seq++ {
		g := ScaleFreeGraph(ScaleFreeConfig{
			N: 120 + rng.Intn(80), OutDeg: 4, Exponent: -2.3,
			Reciprocity: 0.25, Seed: int64(seq) + 900,
		})
		n := g.N()
		// A pool of contested users supplies most flips.
		pool := make([]int, 24)
		for i := range pool {
			pool[i] = rng.Intn(n)
		}
		st := NewState(n)
		for i := range st {
			if rng.Float64() < 0.3 {
				st[i] = Opinion(1 - 2*rng.Intn(2))
			}
		}
		nw := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: 2})
		if err := nw.SetState(st); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 18; tick++ {
			next := st.Clone()
			k := rng.Intn(6) + 1
			for i := 0; i < k; i++ {
				u := pool[rng.Intn(len(pool))]
				if rng.Intn(8) == 0 {
					u = rng.Intn(n) // occasional out-of-pool flip
				}
				next[u] = Opinion(rng.Intn(3) - 1)
			}
			delta := deltaFor(st, next)
			got, err := nw.Step(ctx, delta)
			if err != nil {
				t.Fatalf("seq %d tick %d: Step: %v", seq, tick, err)
			}
			// Full recompute on a transient provider-free handle: fresh
			// cost materialization, fresh SSSP for every term.
			want, err := freshDistance(g, st, next, DefaultOptions())
			if err != nil {
				t.Fatalf("seq %d tick %d: full recompute: %v", seq, tick, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d tick %d (|delta| = %d): Step %+v != full recompute %+v",
					seq, tick, len(delta), got, want)
			}
			st = next
			totalDeltas++
		}
		nw.Close()
	}
}

// TestStepDeltaICCModel: the delta path must stay exact for non-local
// cost models too (they skip patching and rematerialize).
func TestStepDeltaICCModel(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	g := ScaleFreeGraph(ScaleFreeConfig{N: 90, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.3, Seed: 11})
	opts := DefaultOptions()
	opts.Costs = opinion.DefaultGroundCosts(opinion.DefaultICC)
	st := NewState(g.N())
	for i := 0; i < 20; i++ {
		st[rng.Intn(g.N())] = Opinion(1 - 2*rng.Intn(2))
	}
	nw := NewNetwork(g, opts, EngineConfig{Workers: 2})
	defer nw.Close()
	if err := nw.SetState(st); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 6; tick++ {
		next := st.Clone()
		for i := 0; i < 3; i++ {
			next[rng.Intn(g.N())] = Opinion(rng.Intn(3) - 1)
		}
		got, err := nw.Step(ctx, deltaFor(st, next))
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshDistance(g, st, next, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: ICC Step %+v != full recompute %+v", tick, got, want)
		}
		st = next
	}
}

// TestErrDeltaIndex pins the delta-validation sentinel: bad user
// indices and bad opinion values wrap ErrDeltaIndex as well as the
// older shape sentinels, and a failed delta leaves the tracked state
// untouched.
func TestErrDeltaIndex(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 40, OutDeg: 3, Exponent: -2.3, Seed: 5})
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	if err := nw.SetState(NewState(g.N())); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		delta StateDelta
		also  error
	}{
		{"user negative", StateDelta{{User: -1, Opinion: Positive}}, ErrStateSize},
		{"user beyond n", StateDelta{{User: g.N(), Opinion: Positive}}, ErrStateSize},
		{"opinion invalid", StateDelta{{User: 0, Opinion: Opinion(3)}}, ErrInvalidOpinion},
	}
	for _, tc := range cases {
		if _, err := nw.Apply(tc.delta); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%s: Apply err = %v, want ErrDeltaIndex", tc.name, err)
		} else if !errors.Is(err, tc.also) {
			t.Errorf("%s: Apply err = %v, must also wrap %v", tc.name, err, tc.also)
		}
		if _, err := nw.Step(context.Background(), tc.delta); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%s: Step err = %v, want ErrDeltaIndex", tc.name, err)
		}
	}
	// A rejected delta must not advance the tracked state.
	if cur, v := nw.Current(); v != 1 || cur.ActiveCount() != 0 {
		t.Error("rejected delta advanced the tracked state")
	}
	// Apply before SetState keeps reporting ErrStateSize (no tracked
	// state is a shape problem, not a delta-entry problem).
	nw2 := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw2.Close()
	if _, err := nw2.Apply(StateDelta{{User: 0, Opinion: Positive}}); !errors.Is(err, ErrStateSize) {
		t.Errorf("Apply before SetState: err = %v, want ErrStateSize", err)
	}
	if errors.Is(ErrDeltaIndex, ErrStateSize) || errors.Is(ErrStateSize, ErrDeltaIndex) {
		t.Error("sentinels must be distinct")
	}
}
