package core

import (
	"context"
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// statsTestStates builds a small graph and a few random states for the
// stats round-trip.
func statsTestStates(t *testing.T) (*graph.Digraph, []opinion.State) {
	t.Helper()
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 200, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.2, Seed: 901,
	})
	rng := rand.New(rand.NewSource(902))
	states := make([]opinion.State, 4)
	for i := range states {
		st := opinion.NewState(g.N())
		for u := range st {
			if rng.Float64() < 0.2 {
				st[u] = opinion.Opinion(1 - 2*rng.Intn(2))
			}
		}
		states[i] = st
	}
	return g, states
}

// TestEngineStatsSubRoundTrip pins the windowed-delta contract serving
// relies on: for three consecutive snapshots s0, s1, s2 of one engine,
// s1.Sub(s0) + s2.Sub(s1) must reassemble s2.Sub(s0) counter by
// counter, each window's counters must be non-negative, and the
// retention gauges must pass through the newer snapshot unchanged.
func TestEngineStatsSubRoundTrip(t *testing.T) {
	g, states := statsTestStates(t)
	e := NewEngine(g, Options{}, EngineConfig{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	s0 := e.Stats()
	if _, err := e.Series(ctx, states); err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if _, err := e.Matrix(ctx, states); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()

	w01, w12, w02 := s1.Sub(s0), s2.Sub(s1), s2.Sub(s0)

	if w01.Terms <= 0 || w01.Pairs <= 0 {
		t.Fatalf("first window recorded no work: %+v", w01)
	}
	for name, w := range map[string]EngineStats{"s1-s0": w01, "s2-s1": w12, "s2-s0": w02} {
		if w.SSSPTime < 0 || w.FlowTime < 0 || w.BoundTime < 0 ||
			w.Terms < 0 || w.TermsBoundDecided < 0 || w.TermsWarmExact < 0 ||
			w.TermsWarmSolved < 0 || w.FlowSolves < 0 ||
			w.TermsByColumn < 0 || w.TermsKNearest < 0 || w.TermsPartialRows < 0 ||
			w.TermsCompleteRows < 0 || w.CrossedResolves < 0 || w.PricedResolves < 0 ||
			w.Pairs < 0 || w.PairsDecided < 0 || w.PairBounds < 0 {
			t.Errorf("window %s has a negative counter: %+v", name, w)
		}
	}

	// Windows compose: (s1-s0) + (s2-s1) == (s2-s0) for every counter.
	sum := EngineStats{
		SSSPTime:          w01.SSSPTime + w12.SSSPTime,
		FlowTime:          w01.FlowTime + w12.FlowTime,
		BoundTime:         w01.BoundTime + w12.BoundTime,
		Terms:             w01.Terms + w12.Terms,
		TermsBoundDecided: w01.TermsBoundDecided + w12.TermsBoundDecided,
		TermsWarmExact:    w01.TermsWarmExact + w12.TermsWarmExact,
		TermsWarmSolved:   w01.TermsWarmSolved + w12.TermsWarmSolved,
		FlowSolves:        w01.FlowSolves + w12.FlowSolves,
		TermsByColumn:     w01.TermsByColumn + w12.TermsByColumn,
		TermsKNearest:     w01.TermsKNearest + w12.TermsKNearest,
		TermsPartialRows:  w01.TermsPartialRows + w12.TermsPartialRows,
		TermsCompleteRows: w01.TermsCompleteRows + w12.TermsCompleteRows,
		CrossedResolves:   w01.CrossedResolves + w12.CrossedResolves,
		PricedResolves:    w01.PricedResolves + w12.PricedResolves,
		Pairs:             w01.Pairs + w12.Pairs,
		PairsDecided:      w01.PairsDecided + w12.PairsDecided,
		PairBounds:        w01.PairBounds + w12.PairBounds,
		GroundRefs:        w02.GroundRefs,
		GroundBytes:       w02.GroundBytes,
	}
	if sum != w02 {
		t.Errorf("windows do not compose:\n  (s1-s0)+(s2-s1) = %+v\n  s2-s0           = %+v", sum, w02)
	}

	// Sub against the zero snapshot is the identity.
	if got := s2.Sub(EngineStats{}); got != s2 {
		t.Errorf("Sub(zero) changed the snapshot:\n  got  %+v\n  want %+v", got, s2)
	}

	// Gauges are point-in-time: every window carries the newer
	// snapshot's retention, not a difference.
	if w02.GroundRefs != s2.GroundRefs || w02.GroundBytes != s2.GroundBytes {
		t.Errorf("window gauges = (%d, %d), want newer snapshot's (%d, %d)",
			w02.GroundRefs, w02.GroundBytes, s2.GroundRefs, s2.GroundBytes)
	}
}
