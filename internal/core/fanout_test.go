package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/opinion"
)

// TestGoalPruningMatchesFullRows pins the tentpole's exactness claim at
// the engine level: distances with the goal-pruned fan-out are
// bit-identical to the pre-pruning full-row pipeline, across
// clusterings, cache configurations, and randomized state sequences.
func TestGoalPruningMatchesFullRows(t *testing.T) {
	g := engineTestGraph(250, 31)
	for _, cacheBytes := range []int64{-1, 0} {
		for oi, opts := range engineTestOptions(g) {
			pruned := opts
			full := opts
			full.NoGoalPrune = true
			pe := NewEngine(g, pruned, EngineConfig{Workers: 1, GroundCacheBytes: cacheBytes})
			fe := NewEngine(g, full, EngineConfig{Workers: 1, GroundCacheBytes: cacheBytes})
			states := engineTestStates(g.N(), 8, 20, int64(40+oi))
			var pairs []StatePair
			for i := 0; i+1 < len(states); i++ {
				pairs = append(pairs, StatePair{A: states[i], B: states[i+1]})
			}
			got, err := pe.Pairs(context.Background(), pairs)
			if err != nil {
				t.Fatalf("cache %d opts %d: pruned: %v", cacheBytes, oi, err)
			}
			want, err := fe.Pairs(context.Background(), pairs)
			if err != nil {
				t.Fatalf("cache %d opts %d: full: %v", cacheBytes, oi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cache %d opts %d: pruned diverged from full rows:\n%v\n%v",
					cacheBytes, oi, got, want)
			}
		}
	}
}

// TestIntraTermParallelMatchesSequential pins that splitting a term's
// SSSP fan-out across stealing workers changes no result bit: one
// worker (no help pool) against many workers on batches small enough
// that helpers must steal within terms to participate at all.
func TestIntraTermParallelMatchesSequential(t *testing.T) {
	g := engineTestGraph(300, 33)
	states := engineTestStates(g.N(), 4, 40, 34)
	for oi, opts := range engineTestOptions(g) {
		seq := NewEngine(g, opts, EngineConfig{Workers: 1})
		want, err := seq.Distance(context.Background(), states[0], states[1])
		if err != nil {
			t.Fatalf("opts %d: sequential: %v", oi, err)
		}
		for _, workers := range []int{2, 4, 13} {
			par := NewEngine(g, opts, EngineConfig{Workers: workers})
			// A single Distance has 4 terms; extra workers only
			// contribute via intra-term stealing.
			got, err := par.Distance(context.Background(), states[0], states[1])
			if err != nil {
				t.Fatalf("opts %d workers %d: %v", oi, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %d workers %d: parallel fan-out diverged:\n%v\n%v",
					oi, workers, got, want)
			}
			res, err := par.Series(context.Background(), states)
			if err != nil {
				t.Fatalf("opts %d workers %d: series: %v", oi, workers, err)
			}
			wantSeries, err := seq.Series(context.Background(), states)
			if err != nil {
				t.Fatalf("opts %d: sequential series: %v", oi, err)
			}
			if !reflect.DeepEqual(res, wantSeries) {
				t.Fatalf("opts %d workers %d: series diverged", oi, workers)
			}
		}
	}
}

// TestTrackedRefBuildsTreesAfterUntrackedUse pins that a reference
// state first seen as untracked batch traffic (compact rows cached)
// still builds exact repair-donor trees once it becomes tracked:
// without them every later Step would silently degrade to cold
// Dijkstras.
func TestTrackedRefBuildsTreesAfterUntrackedUse(t *testing.T) {
	g := engineTestGraph(150, 61)
	rng := rand.New(rand.NewSource(62))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	a := randState(g.N(), 0.3, rng)
	b := perturb(a, 10, rng)
	ctx := context.Background()
	// Untracked use: compact rows for a and b go in.
	if _, err := e.Distance(ctx, a, b); err != nil {
		t.Fatal(err)
	}
	// a becomes tracked; the same distance must now retain exact trees
	// under a's entry for the delta path to repair from.
	var changed []int32
	for u := range a {
		if a[u] != b[u] {
			changed = append(changed, int32(u))
		}
	}
	e.AdvanceRef(a, b, changed)
	if _, err := e.Distance(ctx, a, b); err != nil {
		t.Fatal(err)
	}
	p := e.prov
	ent := p.lookup(hashState(a))
	if ent == nil || !ent.tracked {
		t.Fatal("reference state a not tracked after AdvanceRef")
	}
	trees := 0
	for oi := range ent.side {
		trees += len(ent.side[oi].trees)
	}
	if trees == 0 {
		t.Fatal("tracked reference state retained no exact trees; delta repairs have no donor")
	}
}

// TestPrunedTrackedDeltaPath pins that the provider's tracked-state
// fast path (full rows retained for repair, sliced to targets by
// rowGoals) stays bit-identical to cold recomputation when pruning and
// stealing are both on.
func TestPrunedTrackedDeltaPath(t *testing.T) {
	g := engineTestGraph(220, 51)
	rng := rand.New(rand.NewSource(52))
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 3})
	cold := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1, GroundCacheBytes: -1})
	cur := randState(g.N(), 0.3, rng)
	for tick := 0; tick < 12; tick++ {
		next := cur.Clone()
		var changed []int32
		for k := 0; k < 5; k++ {
			u := rng.Intn(g.N())
			op := opinion.Opinion(rng.Intn(3) - 1)
			if next[u] != op {
				next[u] = op
				changed = append(changed, int32(u))
			}
		}
		e.AdvanceRef(cur, next, changed)
		got, err := e.Distance(context.Background(), cur, next)
		if err != nil {
			t.Fatalf("tick %d: tracked: %v", tick, err)
		}
		want, err := cold.Distance(context.Background(), cur, next)
		if err != nil {
			t.Fatalf("tick %d: cold: %v", tick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: tracked pruned path diverged:\n%v\n%v", tick, got, want)
		}
		cur = next
	}
}
