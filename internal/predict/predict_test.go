package predict

import (
	"context"
	"math/rand"
	"testing"

	"snd/internal/core"
	"snd/internal/distance"
	"snd/internal/dynamics"
	"snd/internal/graph"
	"snd/internal/opinion"
)

func evolutionSeries(g *graph.Digraph, steps int, seed int64) []opinion.State {
	ev := dynamics.NewEvolution(g, g.N()/10, seed)
	states := []opinion.State{ev.State()}
	states = append(states, ev.GenerateSeries(steps, []dynamics.StepParams{{Pnbr: 0.15, Pext: 0.02}})...)
	return states
}

func TestSelectTargetsBalanced(t *testing.T) {
	st := opinion.NewState(100)
	for i := 0; i < 30; i++ {
		st[i] = opinion.Positive
	}
	for i := 30; i < 60; i++ {
		st[i] = opinion.Negative
	}
	rng := rand.New(rand.NewSource(1))
	targets := SelectTargets(st, 20, rng)
	if len(targets) != 20 {
		t.Fatalf("targets = %d, want 20", len(targets))
	}
	pos, neg := 0, 0
	seen := map[int]bool{}
	for _, u := range targets {
		if seen[u] {
			t.Fatal("duplicate target")
		}
		seen[u] = true
		switch st[u] {
		case opinion.Positive:
			pos++
		case opinion.Negative:
			neg++
		default:
			t.Fatal("neutral user selected as target")
		}
	}
	if pos != 10 || neg != 10 {
		t.Errorf("pos=%d neg=%d, want 10/10", pos, neg)
	}
	// Scarce actives: fewer targets returned, never neutral ones.
	scarce := opinion.NewState(10)
	scarce[0] = opinion.Positive
	got := SelectTargets(scarce, 20, rng)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("scarce targets = %v", got)
	}
}

func TestBlank(t *testing.T) {
	st := opinion.State{opinion.Positive, opinion.Negative, opinion.Positive}
	blanked := Blank(st, []int{0, 2})
	if blanked[0] != opinion.Neutral || blanked[2] != opinion.Neutral || blanked[1] != opinion.Negative {
		t.Errorf("Blank = %v", blanked)
	}
	if st[0] != opinion.Positive {
		t.Error("Blank mutated its input")
	}
}

func TestAccuracy(t *testing.T) {
	truth := opinion.State{opinion.Positive, opinion.Negative, opinion.Positive}
	acc, err := Accuracy(truth, []int{0, 1, 2}, []opinion.Opinion{opinion.Positive, opinion.Positive, opinion.Positive})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2.0/3 {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
	if _, err := Accuracy(truth, []int{0}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Accuracy(truth, nil, nil); err == nil {
		t.Error("empty targets accepted")
	}
}

func TestNhoodVoting(t *testing.T) {
	// Target 2 follows two + users: must predict +.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	current := opinion.State{opinion.Positive, opinion.Positive, opinion.Neutral, opinion.Neutral}
	p := NhoodVoting{G: g, Seed: 1}
	got, err := p.Predict(context.Background(), nil, current, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != opinion.Positive {
		t.Errorf("prediction = %v, want +", got[0])
	}
	// Isolated target: random but never neutral.
	got, _ = p.Predict(context.Background(), nil, current, []int{3})
	if got[0] == opinion.Neutral {
		t.Error("random fallback predicted neutral")
	}
	if p.Name() != "nhood-voting" {
		t.Error("bad name")
	}
}

func TestCommunityLP(t *testing.T) {
	// Two cliques; community A active users are +, B are -.
	b := graph.NewBuilder(12)
	addClique := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := lo; v < hi; v++ {
				if u != v {
					b.AddEdge(u, v)
				}
			}
		}
	}
	addClique(0, 6)
	addClique(6, 12)
	b.AddEdge(5, 6)
	g := b.Build()
	current := opinion.NewState(12)
	for i := 0; i < 4; i++ {
		current[i] = opinion.Positive
		current[6+i] = opinion.Negative
	}
	targets := []int{4, 10}
	current = Blank(current, targets)
	p := CommunityLP{G: g, Seed: 2}
	got, err := p.Predict(context.Background(), nil, current, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != opinion.Positive {
		t.Errorf("clique-A target predicted %v, want +", got[0])
	}
	if got[1] != opinion.Negative {
		t.Errorf("clique-B target predicted %v, want -", got[1])
	}
}

func TestDistanceBasedNeedsHistory(t *testing.T) {
	p := DistanceBased{Measure: distance.Hamming{N: 6}}
	if _, err := p.Predict(context.Background(), []opinion.State{opinion.NewState(6)}, opinion.NewState(6), []int{0}); err == nil {
		t.Error("single past state accepted")
	}
}

func TestDistanceBasedWithSND(t *testing.T) {
	g := graph.ScaleFree(graph.ScaleFreeConfig{N: 150, OutDeg: 4, Exponent: -2.5, Reciprocity: 0.3, Seed: 3})
	states := evolutionSeries(g, 5, 11)
	truth := states[len(states)-1]
	rng := rand.New(rand.NewSource(7))
	targets := SelectTargets(truth, 8, rng)
	if len(targets) < 4 {
		t.Skip("not enough active users in fixture")
	}
	current := Blank(truth, targets)
	past := states[:len(states)-1]
	eng := core.NewEngine(g, core.DefaultOptions(), core.EngineConfig{})
	defer eng.Close()
	m := SNDMeasure{Engine: eng}
	p := DistanceBased{Measure: m, Assignments: 40, Seed: 13}
	got, err := p.Predict(context.Background(), past, current, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(targets) {
		t.Fatalf("predictions = %d, want %d", len(got), len(targets))
	}
	for _, o := range got {
		if o == opinion.Neutral {
			t.Error("distance-based predicted neutral for an active target")
		}
	}
	acc, err := Accuracy(truth, targets, got)
	if err != nil {
		t.Fatal(err)
	}
	// The evolution is neighbor-driven, so SND-based prediction should
	// beat a coin flip on average; allow slack for small samples.
	if acc < 0.25 {
		t.Errorf("suspiciously low accuracy %v", acc)
	}
	if p.Name() != "snd" {
		t.Error("bad name")
	}
}

func TestDistanceBasedDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(60, 360, 5)
	states := evolutionSeries(g, 4, 17)
	truth := states[len(states)-1]
	rng := rand.New(rand.NewSource(19))
	targets := SelectTargets(truth, 6, rng)
	if len(targets) == 0 {
		t.Skip("no active users")
	}
	current := Blank(truth, targets)
	p := DistanceBased{Measure: distance.Hamming{N: g.N()}, Assignments: 30, Seed: 23}
	a, err := p.Predict(context.Background(), states[:len(states)-1], current, targets)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Predict(context.Background(), states[:len(states)-1], current, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("same seed must give identical predictions")
		}
	}
}
