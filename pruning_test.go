package snd

import (
	"context"
	"reflect"
	"testing"
)

// TestNetworkPruningAndParallelInvariance pins, at the public Network
// level, that the goal-pruned SSSP fan-out and intra-term work
// stealing change no result bit: whole-series distances are identical
// with one worker and with many, and the delta path (StepFrom) matches
// them. The pruned-vs-full-rows comparison needs the full-row
// pipeline, which only package core can switch on; it lives in
// TestGoalPruningMatchesFullRows there.
func TestNetworkPruningAndParallelInvariance(t *testing.T) {
	g, states := networkTestFixture(t, 200, 6, 77)
	ctx := context.Background()

	baseline := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: 1})
	defer baseline.Close()
	want, err := baseline.Series(ctx, states)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		nw := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: workers})
		got, err := nw.Series(ctx, states)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: parallel series diverged from one worker:\n%v\n%v", workers, got, want)
		}
		nw.Close()
	}

	// The delta path: StepFrom distances must match the single-worker
	// series over the same states.
	warm := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: 4})
	defer warm.Close()
	cur := states[0]
	for i := 1; i < len(states); i++ {
		var delta StateDelta
		prev := states[i-1]
		for u := range states[i] {
			if states[i][u] != prev[u] {
				delta = append(delta, OpinionChange{User: u, Opinion: states[i][u]})
			}
		}
		next, res, err := warm.StepFrom(ctx, cur, delta)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.SND != want[i-1] {
			t.Fatalf("step %d: delta path %v, series baseline %v", i, res.SND, want[i-1])
		}
		cur = next
	}
}
