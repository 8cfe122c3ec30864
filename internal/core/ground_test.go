package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// applyFlips returns a copy of st with k random users re-rolled, plus
// the list of users whose opinion actually changed.
func applyFlips(st opinion.State, k int, rng *rand.Rand) (opinion.State, []int32) {
	next := st.Clone()
	var changed []int32
	for i := 0; i < k; i++ {
		u := rng.Intn(len(st))
		next[u] = opinion.Opinion(rng.Intn(3) - 1)
	}
	for u := range next {
		if next[u] != st[u] {
			changed = append(changed, int32(u))
		}
	}
	return next, changed
}

// TestProviderDeltaDerivationExact drives a long random delta chain
// through the provider and pins every derived cost array and distance
// row bit-identical to fresh materialization and fresh Dijkstra.
func TestProviderDeltaDerivationExact(t *testing.T) {
	g := engineTestGraph(250, 21)
	opts := DefaultOptions().withDefaults()
	p := newGroundProvider(g, opts.Costs, 8<<20, infCost(g.N(), opts.Costs.MaxCost(), opts.EscapeHops))
	rng := rand.New(rand.NewSource(33))
	st := engineTestStates(g.N(), 1, 0, 23)[0]
	// Seed the chain's first entry so derivations have an ancestor.
	h := hashState(st)
	for _, op := range []opinion.Opinion{opinion.Positive, opinion.Negative} {
		p.weights(h, st, op, false)
		p.weights(h, st, op, true)
		for s := 0; s < 4; s++ {
			p.row(h, st, op, false, int32(s), p.weights(h, st, op, false))
			p.row(h, st, op, true, int32(s), p.weights(h, st, op, true))
		}
	}
	for tick := 0; tick < 30; tick++ {
		next, changed := applyFlips(st, rng.Intn(6)+1, rng)
		if len(changed) == 0 {
			continue
		}
		p.advance(st, next, changed)
		hn := hashState(next)
		for _, op := range []opinion.Opinion{opinion.Positive, opinion.Negative} {
			fw := p.weights(hn, next, op, false)
			wantW := opts.Costs.EdgeCosts(g, next, op)
			if !reflect.DeepEqual(fw, wantW) {
				t.Fatalf("tick %d op %v: derived forward costs diverge from EdgeCosts", tick, op)
			}
			rw := p.weights(hn, next, op, true)
			if !reflect.DeepEqual(rw, graph.PermuteToReverse(g, wantW)) {
				t.Fatalf("tick %d op %v: derived reverse costs diverge", tick, op)
			}
			for s := 0; s < 4; s++ {
				src := int32((s*37 + tick) % g.N())
				row, ok := p.row(hn, next, op, false, src, fw)
				if !ok {
					t.Fatalf("tick %d: provider declined within budget", tick)
				}
				var fresh sssp.Result
				sssp.DijkstraInto(g, wantW, int(src), opts.Costs.MaxCost(), &fresh)
				if !reflect.DeepEqual(row, fresh.Dist) {
					t.Fatalf("tick %d op %v src %d: repaired row diverges from fresh Dijkstra", tick, op, src)
				}
				rrow, ok := p.row(hn, next, op, true, src, rw)
				if !ok {
					t.Fatalf("tick %d: provider declined reversed row", tick)
				}
				var rfresh sssp.Result
				sssp.DijkstraInto(g.Reverse(), graph.PermuteToReverse(g, wantW), int(src), opts.Costs.MaxCost(), &rfresh)
				if !reflect.DeepEqual(rrow, rfresh.Dist) {
					t.Fatalf("tick %d op %v src %d: repaired reverse row diverges", tick, op, src)
				}
			}
		}
		st = next
	}
}

// TestProviderWindowRetention: tracked states beyond the window are
// evicted with a full byte refund, so an endless delta stream cannot
// leak the budget away.
func TestProviderWindowRetention(t *testing.T) {
	g := engineTestGraph(120, 5)
	opts := DefaultOptions().withDefaults()
	p := newGroundProvider(g, opts.Costs, 4<<20, infCost(g.N(), opts.Costs.MaxCost(), opts.EscapeHops))
	budget0 := p.budgetRemaining()
	rng := rand.New(rand.NewSource(8))
	st := engineTestStates(g.N(), 1, 0, 9)[0]
	hashes := []hashKey{hashState(st)}
	for tick := 0; tick < 5*providerWindow; tick++ {
		next, changed := applyFlips(st, 3, rng)
		if len(changed) == 0 {
			continue
		}
		p.advance(st, next, changed)
		hn := hashState(next)
		hashes = append(hashes, hn)
		// Materialize something under the new state so entries carry
		// bytes that must be refunded on eviction.
		w := p.weights(hn, next, opinion.Positive, false)
		p.row(hn, next, opinion.Positive, false, int32(tick%g.N()), w)
		st = next
	}
	tracked := p.windowLen()
	refCount, _ := p.retention()
	if tracked > providerWindow {
		t.Errorf("window holds %d tracked states, cap is %d", tracked, providerWindow)
	}
	if refCount > providerWindow {
		t.Errorf("provider retains %d entries after a long chain, want <= %d", refCount, providerWindow)
	}
	// Old states must be gone; the newest must remain.
	oldPresent := p.lookup(hashes[0]) != nil
	newPresent := p.lookup(hashes[len(hashes)-1]) != nil
	if oldPresent {
		t.Error("oldest tracked state still retained")
	}
	if !newPresent {
		t.Error("newest tracked state was evicted")
	}
	// Evicting the survivors refunds the budget exactly.
	for _, h := range hashes {
		p.evictEntry(h)
	}
	if got := p.budgetRemaining(); got != budget0 {
		t.Errorf("budget = %d after evicting everything, want %d", got, budget0)
	}
	if _, bytes := p.retention(); bytes != 0 {
		t.Errorf("retained bytes = %d after evicting everything, want 0", bytes)
	}
}

// TestProviderNonLocalModel: aggregate cost models (ICC) skip lineage
// derivation but stay exact through rematerialization.
func TestProviderNonLocalModel(t *testing.T) {
	g := engineTestGraph(100, 13)
	opts := DefaultOptions()
	opts.Costs = opinion.DefaultGroundCosts(opinion.DefaultICC)
	opts = opts.withDefaults()
	p := newGroundProvider(g, opts.Costs, 4<<20, infCost(g.N(), opts.Costs.MaxCost(), opts.EscapeHops))
	if p.local {
		t.Fatal("ICC must not be treated as a local model")
	}
	rng := rand.New(rand.NewSource(3))
	st := engineTestStates(g.N(), 1, 0, 4)[0]
	next, changed := applyFlips(st, 4, rng)
	h := hashState(st)
	p.weights(h, st, opinion.Positive, false)
	p.advance(st, next, changed)
	hn := hashState(next)
	got := p.weights(hn, next, opinion.Positive, false)
	want := opts.Costs.EdgeCosts(g, next, opinion.Positive)
	if !reflect.DeepEqual(got, want) {
		t.Error("non-local model: provider weights diverge from EdgeCosts")
	}
}

// TestEngineDeltaPathMatchesColdEngine pins the end-to-end contract at
// the engine level: a Distance computed after AdvanceRef lineage (warm
// provider, delta-derived ground data) is bit-identical to the same
// Distance on a cold engine, with singleton and clustered banks.
func TestEngineDeltaPathMatchesColdEngine(t *testing.T) {
	g := engineTestGraph(300, 17)
	for oi, opts := range engineTestOptions(g) {
		rng := rand.New(rand.NewSource(41))
		warm := NewEngine(g, opts, EngineConfig{Workers: 2})
		defer warm.Close()
		ctx := context.Background()
		st := engineTestStates(g.N(), 1, 0, 19)[0]
		for tick := 0; tick < 12; tick++ {
			next, changed := applyFlips(st, rng.Intn(6)+1, rng)
			if len(changed) == 0 {
				continue
			}
			warm.AdvanceRef(st, next, changed)
			got, err := warm.Distance(ctx, st, next)
			if err != nil {
				t.Fatal(err)
			}
			cold := NewEngine(g, opts, EngineConfig{Workers: 2})
			want, err := cold.Distance(ctx, st, next)
			cold.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opts %d tick %d: delta-path result %+v != cold engine %+v", oi, tick, got, want)
			}
			st = next
		}
	}
}
