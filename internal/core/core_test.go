package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
)

func randState(n int, activeFrac float64, rng *rand.Rand) opinion.State {
	st := opinion.NewState(n)
	for i := range st {
		if rng.Float64() < activeFrac {
			if rng.Float64() < 0.5 {
				st[i] = opinion.Positive
			} else {
				st[i] = opinion.Negative
			}
		}
	}
	return st
}

// perturb flips k random users' opinions.
func perturb(st opinion.State, k int, rng *rand.Rand) opinion.State {
	out := st.Clone()
	for i := 0; i < k; i++ {
		u := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[u] = opinion.Positive
		case 1:
			out[u] = opinion.Negative
		default:
			out[u] = opinion.Neutral
		}
	}
	return out
}

func TestDistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(40, 240, 1)
	st := randState(40, 0.4, rng)
	for _, s := range strategies {
		res, err := distanceVia(g, st, st, DefaultOptions(), s.term)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.SND != 0 {
			t.Errorf("%s: SND(s,s) = %v, want 0", s.name, res.SND)
		}
		if res.NDelta != 0 {
			t.Errorf("%s: NDelta = %d", s.name, res.NDelta)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(30, 180, 2)
	for trial := 0; trial < 10; trial++ {
		a := randState(30, 0.4, rng)
		b := perturb(a, 5, rng)
		opts := DefaultOptions()
		ab, err := Distance(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Distance(g, b, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ab.SND-ba.SND) > 1e-9*math.Max(1, ab.SND) {
			t.Fatalf("trial %d: SND(a,b)=%v != SND(b,a)=%v", trial, ab.SND, ba.SND)
		}
	}
}

// TestEnginesAgree is the heart of the Theorem 4 claim: the reduced
// bipartite route and the network route compute exactly the
// dense-oracle value (singleton banks).
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		n := 15 + rng.Intn(25)
		g := graph.ErdosRenyi(n, 6*n, int64(trial))
		a := randState(n, 0.3+0.3*rng.Float64(), rng)
		b := perturb(a, 1+rng.Intn(8), rng)
		var values [3]float64
		for i, s := range strategies {
			res, err := distanceVia(g, a, b, DefaultOptions(), s.term)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.name, err)
			}
			values[i] = res.SND
		}
		if math.Abs(values[0]-values[2]) > 1e-6*math.Max(1, values[2]) {
			t.Fatalf("trial %d: bipartite %v != dense %v", trial, values[0], values[2])
		}
		if math.Abs(values[1]-values[2]) > 1e-6*math.Max(1, values[2]) {
			t.Fatalf("trial %d: network %v != dense %v", trial, values[1], values[2])
		}
	}
}

// TestDirectMatchesFast: the un-reduced simplex baseline equals
// Distance (Lemmas 1 and 2 are exact).
func TestDirectMatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(15)
		g := graph.ErdosRenyi(n, 5*n, int64(100+trial))
		a := randState(n, 0.4, rng)
		b := perturb(a, 1+rng.Intn(6), rng)
		opts := DefaultOptions()
		fast, err := Distance(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Direct(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.SND-direct.SND) > 1e-6*math.Max(1, direct.SND) {
			t.Fatalf("trial %d: fast %v != direct %v (terms %v vs %v)",
				trial, fast.SND, direct.SND, fast.Terms, direct.Terms)
		}
	}
}

// TestSolversAgreeWithinEngines runs both min-cost-flow solvers on
// both routes' instances and pins every combination to the dense
// oracle.
func TestSolversAgreeWithinEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(25, 150, 9)
	a := randState(25, 0.5, rng)
	b := perturb(a, 6, rng)
	ref, err := distanceVia(g, a, b, DefaultOptions(), viaDense)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct {
		name   string
		solver func(costScaling bool) termFn
	}{{"bipartite", viaBipartiteSolver}, {"network", viaNetworkSolver}} {
		for _, costScaling := range []bool{false, true} {
			res, err := distanceVia(g, a, b, DefaultOptions(), route.solver(costScaling))
			if err != nil {
				t.Fatalf("%s/cost-scaling=%v: %v", route.name, costScaling, err)
			}
			if math.Abs(res.SND-ref.SND) > 1e-9*math.Max(1, ref.SND) {
				t.Errorf("%s/cost-scaling=%v: SND %v != dense %v", route.name, costScaling, res.SND, ref.SND)
			}
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two components; opinion moves across require the escape hatch and
	// both routes and the oracle must agree on the saturated cost.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 2)
	// 4, 5 isolated.
	g := b.Build()
	a := opinion.State{opinion.Positive, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral}
	c := opinion.State{opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Positive, opinion.Neutral}
	var vals []float64
	for _, s := range strategies {
		res, err := distanceVia(g, a, c, DefaultOptions(), s.term)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		vals = append(vals, res.SND)
	}
	if vals[0] != vals[1] || vals[0] != vals[2] {
		t.Errorf("engines disagree on disconnected graph: %v", vals)
	}
	if vals[0] <= 0 {
		t.Error("disconnected move should cost > 0")
	}
}

func TestMassMismatchOnlyPositive(t *testing.T) {
	// b adds activations; SND must be positive even though no user
	// flipped between + and -.
	g := graph.Ring(10)
	a := opinion.NewState(10)
	a[0] = opinion.Positive
	b := a.Clone()
	b[5] = opinion.Positive
	res, err := Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SND <= 0 {
		t.Errorf("SND = %v, want > 0 for a new activation", res.SND)
	}
	if res.NDelta != 1 {
		t.Errorf("NDelta = %d, want 1", res.NDelta)
	}
}

// TestPropagationCheaperThanTeleport is the SND-level Fig. 5 check: a
// new activation adjacent to existing same-opinion mass costs less
// than one far from it.
func TestPropagationCheaperThanTeleport(t *testing.T) {
	g := graph.Ring(20)
	base := opinion.NewState(20)
	base[0] = opinion.Positive
	near := base.Clone()
	near[1] = opinion.Positive // neighbor of the active user
	far := base.Clone()
	far[10] = opinion.Positive // diametrically opposite
	opts := DefaultOptions()
	dNear, err := Distance(g, base, near, opts)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := Distance(g, base, far, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dNear.SND >= dFar.SND {
		t.Errorf("near activation %v should cost less than far %v", dNear.SND, dFar.SND)
	}
}

// TestAdverseBlocking: propagating + through a wall of - users costs
// more than through neutral users (the competition the ground distance
// encodes).
func TestAdverseBlocking(t *testing.T) {
	// Path: 0 -> 1 -> 2; activation appears at 2; user 1 is the wall.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	mk := func(wall opinion.Opinion) (opinion.State, opinion.State) {
		a := opinion.State{opinion.Positive, wall, opinion.Neutral}
		c := a.Clone()
		c[2] = opinion.Positive
		return a, c
	}
	opts := DefaultOptions()
	aN, bN := mk(opinion.Neutral)
	dNeutral, err := Distance(g, aN, bN, opts)
	if err != nil {
		t.Fatal(err)
	}
	aA, bA := mk(opinion.Negative)
	dAdverse, err := Distance(g, aA, bA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dAdverse.SND <= dNeutral.SND {
		t.Errorf("adverse wall %v should cost more than neutral %v", dAdverse.SND, dNeutral.SND)
	}
}

func TestValidationErrors(t *testing.T) {
	g := graph.Ring(4)
	good := opinion.NewState(4)
	if _, err := Distance(g, opinion.NewState(3), good, DefaultOptions()); err == nil {
		t.Error("state size mismatch accepted")
	}
	bad := good.Clone()
	bad[0] = opinion.Opinion(7)
	if _, err := Distance(g, bad, good, DefaultOptions()); err == nil {
		t.Error("invalid opinion accepted")
	}
	opts := DefaultOptions()
	opts.Clusters = []int{0, 1}
	if _, err := Distance(g, good, good, opts); err == nil {
		t.Error("short cluster labels accepted")
	}
}

func TestSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(20, 120, 3)
	states := []opinion.State{randState(20, 0.4, rng)}
	for i := 0; i < 3; i++ {
		states = append(states, perturb(states[len(states)-1], 3, rng))
	}
	e := NewEngine(g, DefaultOptions(), EngineConfig{})
	defer e.Close()
	out, err := e.Series(context.Background(), states)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	if _, err := e.Series(context.Background(), states[:1]); !errors.Is(err, ErrShortSeries) {
		t.Errorf("single-state series: err = %v, want ErrShortSeries", err)
	}
}

func TestClusteredBanksUpperBoundDense(t *testing.T) {
	// With coarse clusters both routes charge bank transport at user
	// grain, which differs from eq. 4's cluster grain in either
	// direction (docs/ARCHITECTURE.md, "Design notes"); the two routes
	// must still agree with each other.
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(24, 140, 5)
	clusters := make([]int, 24)
	for i := range clusters {
		clusters[i] = i % 4
	}
	a := randState(24, 0.5, rng)
	b := perturb(a, 6, rng)
	opts := DefaultOptions()
	opts.Clusters = clusters
	fast, err := distanceVia(g, a, b, opts, viaBipartite)
	if err != nil {
		t.Fatal(err)
	}
	net, err := distanceVia(g, a, b, opts, viaNetwork)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.SND-net.SND) > 1e-9*math.Max(1, fast.SND) {
		t.Errorf("bipartite %v != network %v under clustering", fast.SND, net.SND)
	}
}

// TestEngineAutoSwitches pins the input-driven route choice: a small
// reduced instance takes the bipartite route, and one past the
// reduced-node limit max(n/4, 1000) takes the network route, through an
// Engine bit-identical to the standalone path.
func TestEngineAutoSwitches(t *testing.T) {
	g := graph.ErdosRenyi(30, 180, 7)
	// Crafted churn so every term's reduced instance has multiple
	// suppliers and consumers (arcs > 1).
	a := opinion.NewState(30)
	b := opinion.NewState(30)
	for i := 0; i < 4; i++ {
		a[i] = opinion.Positive
		b[4+i] = opinion.Positive
		a[8+i] = opinion.Negative
		b[12+i] = opinion.Negative
	}
	res, err := Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EnginesUsed {
		if res.Terms[i] > 0 && e != EngineBipartite {
			t.Errorf("term %d used %v, want bipartite", i, e)
		}
	}
	if res.SSSPRuns == 0 {
		t.Error("bipartite engine should report SSSP runs")
	}

	// 600 suppliers and 600 consumers with equal mass: 1200 reduced
	// nodes on the two positive terms, past max(1200/4, 1000).
	const n = 1200
	g = graph.ErdosRenyi(n, 6*n, 7)
	a, b = opinion.NewState(n), opinion.NewState(n)
	for i := 0; i < n/2; i++ {
		a[i] = opinion.Positive
		b[n/2+i] = opinion.Positive
	}
	res, err = Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := [4]ComputeEngine{EngineNetwork, EngineAuto, EngineNetwork, EngineAuto}
	if res.EnginesUsed != want {
		t.Errorf("engines used %v, want %v", res.EnginesUsed, want)
	}
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 2})
	defer e.Close()
	got, err := e.Distance(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("engine %+v != standalone %+v", got, res)
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range []ComputeEngine{EngineAuto, EngineBipartite, EngineNetwork, EngineDense} {
		names[e.String()] = true
	}
	if len(names) != 4 {
		t.Errorf("engine names collide: %v", names)
	}
}

// TestColdSSPRule pins coldSSP's choice on the probe shapes of
// BenchmarkColdSolveShape at the last size each solver won: 64
// clustered banks with 200 and 400 residual suppliers (banks absorb)
// and 50 and 100 residual consumers (banks supply), 200 singleton banks
// against 400 residual suppliers (600 nodes), and 859 singleton banks
// against 25 users.
func TestColdSSPRule(t *testing.T) {
	shape := func(users, banks int, banksOnSupplier bool) reduction {
		red := reduction{banksOnSupplier: banksOnSupplier, banks: make([]bankGroup, banks)}
		side := make([]int32, users)
		if banksOnSupplier {
			red.C = side
		} else {
			red.S = side
		}
		return red
	}
	for _, c := range []struct {
		users, banks    int
		banksOnSupplier bool
		ssp             bool
	}{
		{200, 64, false, true}, {400, 64, false, false},
		{50, 64, true, true}, {100, 64, true, false},
		{400, 200, false, true}, {200, 200, true, true},
		{25, 859, false, false}, {25, 859, true, false},
	} {
		if got := coldSSP(shape(c.users, c.banks, c.banksOnSupplier)); got != c.ssp {
			t.Errorf("%d users, %d banks, banksOnSupplier=%v: coldSSP = %v, want %v", c.users, c.banks, c.banksOnSupplier, got, c.ssp)
		}
	}
}
