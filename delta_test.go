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
// through Network.StepFrom (whose ground costs are patched and whose
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
			stepped, got, err := nw.StepFrom(ctx, st, delta)
			if err != nil {
				t.Fatalf("seq %d tick %d: StepFrom: %v", seq, tick, err)
			}
			if !reflect.DeepEqual(stepped, next) {
				t.Fatalf("seq %d tick %d: StepFrom advanced to the wrong state", seq, tick)
			}
			// Full recompute on a transient provider-free handle: fresh
			// cost materialization, fresh SSSP for every term.
			want, err := freshDistance(g, st, next, DefaultOptions())
			if err != nil {
				t.Fatalf("seq %d tick %d: full recompute: %v", seq, tick, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d tick %d (|delta| = %d): StepFrom %+v != full recompute %+v",
					seq, tick, len(delta), got, want)
			}
			st = stepped
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
	for tick := 0; tick < 6; tick++ {
		next := st.Clone()
		for i := 0; i < 3; i++ {
			next[rng.Intn(g.N())] = Opinion(rng.Intn(3) - 1)
		}
		_, got, err := nw.StepFrom(ctx, st, deltaFor(st, next))
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshDistance(g, st, next, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: ICC StepFrom %+v != full recompute %+v", tick, got, want)
		}
		st = next
	}
}

// TestErrDeltaIndex pins the delta-validation sentinel: bad user
// indices and bad opinion values wrap ErrDeltaIndex as well as the
// older shape sentinels, and a failed delta returns no state and
// leaves its input state untouched.
func TestErrDeltaIndex(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 40, OutDeg: 3, Exponent: -2.3, Seed: 5})
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	st := NewState(g.N())
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
		if next, err := nw.ApplyFrom(st, tc.delta); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%s: ApplyFrom err = %v, want ErrDeltaIndex", tc.name, err)
		} else if !errors.Is(err, tc.also) {
			t.Errorf("%s: ApplyFrom err = %v, must also wrap %v", tc.name, err, tc.also)
		} else if next != nil {
			t.Errorf("%s: rejected ApplyFrom returned a state", tc.name)
		}
		if next, _, err := nw.StepFrom(context.Background(), st, tc.delta); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%s: StepFrom err = %v, want ErrDeltaIndex", tc.name, err)
		} else if next != nil {
			t.Errorf("%s: rejected StepFrom returned a state", tc.name)
		}
	}
	// A rejected delta must not touch its input state.
	if st.ActiveCount() != 0 {
		t.Error("rejected delta mutated its input state")
	}
	// A delta against a state of the wrong shape is a shape problem,
	// not a delta-entry problem: it reports ErrStateSize alone.
	_, err := nw.ApplyFrom(NewState(g.N()-1), StateDelta{{User: 0, Opinion: Positive}})
	if !errors.Is(err, ErrStateSize) || errors.Is(err, ErrDeltaIndex) {
		t.Errorf("ApplyFrom short state: err = %v, want ErrStateSize without ErrDeltaIndex", err)
	}
	if errors.Is(ErrDeltaIndex, ErrStateSize) || errors.Is(ErrStateSize, ErrDeltaIndex) {
		t.Error("sentinels must be distinct")
	}
}

// stepCase is one decoded FuzzStepFrom input: a small digraph, a base
// state and a lineage of deltas, some of them invalid.
type stepCase struct {
	g      *Graph
	base   State
	deltas []StateDelta
}

// decodeStepCase reads, in order: the user count n (2..48), the edge
// count (0..4n), the number of deltas (0..8), one opinion byte per
// user of the base state, the edges as (tail, head) pairs, then per
// delta its length (0..7) and its changes as (user, opinion) byte
// pairs. A user byte below 250 addresses user byte mod n; 250..255
// address users outside [0, n): n, -1, n+2, -3, n+4, -5. An opinion
// byte below 250 is byte mod 3 - 1; 250..255 are the invalid opinions
// 2, -3, 4, -5, 6, -7. Missing bytes read as zero.
func decodeStepCase(data []byte) stepCase {
	in := data
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		v := int(in[0])
		in = in[1:]
		return v
	}
	outside := func(b, lo, hi int) int { // b in 250..255
		k := b - 250
		if k%2 == 1 {
			return lo - k
		}
		return hi + k
	}
	n := 2 + next()%47
	m := next() % (4*n + 1)
	count := next() % 9
	c := stepCase{base: NewState(n)}
	for u := range c.base {
		c.base[u] = Opinion(next()%3 - 1)
	}
	b := NewGraphBuilder(n)
	for e := 0; e < m; e++ {
		b.AddEdge(next()%n, next()%n)
	}
	c.g = b.Build()
	for i := 0; i < count; i++ {
		d := StateDelta{}
		for k := next() % 8; k > 0; k-- {
			ch := OpinionChange{}
			if u := next(); u < 250 {
				ch.User = u % n
			} else {
				ch.User = outside(u, 0, n)
			}
			if o := next(); o < 250 {
				ch.Opinion = Opinion(o%3 - 1)
			} else {
				ch.Opinion = Opinion(outside(o, -2, 2))
			}
			d = append(d, ch)
		}
		c.deltas = append(c.deltas, d)
	}
	return c
}

// FuzzStepFrom drives one state lineage through Network.StepFrom and
// checks it against a lineage the test keeps itself: a valid delta
// must return the expected state and a Result equal to a provider-free
// full recompute of the two states, and must leave its input state
// unmodified; an invalid delta must return a nil state and an error
// wrapping ErrDeltaIndex, and the lineage continues from the old
// state. The seed corpus (testdata/fuzz/FuzzStepFrom) covers empty,
// duplicate, reverting, out-of-range and invalid-opinion deltas and a
// long lineage over a small pool of users, so that trees get repaired.
func FuzzStepFrom(f *testing.F) {
	ctx := context.Background()
	opts := DefaultOptions()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeStepCase(data)
		nw := NewNetwork(c.g, opts, EngineConfig{Workers: 2})
		defer nw.Close()
		cur, exp := c.base, c.base.Clone()
		for i, delta := range c.deltas {
			want, valid := exp.Clone(), true
			for _, ch := range delta {
				if ch.User < 0 || ch.User >= c.g.N() || !ch.Opinion.Valid() {
					valid = false
					break
				}
				want[ch.User] = ch.Opinion
			}
			next, res, err := nw.StepFrom(ctx, cur, delta)
			if !reflect.DeepEqual(cur, exp) {
				t.Fatalf("delta %d %v: StepFrom modified its input state", i, delta)
			}
			if !valid {
				if next != nil || !errors.Is(err, ErrDeltaIndex) {
					t.Fatalf("delta %d %v: got state %v, err %v; want nil state and ErrDeltaIndex", i, delta, next, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("delta %d %v: %v", i, delta, err)
			}
			if !reflect.DeepEqual(next, want) {
				t.Fatalf("delta %d %v: advanced to %v, want %v", i, delta, next, want)
			}
			fresh, err := freshDistance(c.g, exp, want, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, fresh) {
				t.Fatalf("delta %d %v: StepFrom %+v != full recompute %+v", i, delta, res, fresh)
			}
			cur, exp = next, want
		}
	})
}
