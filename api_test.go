package snd

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snd/internal/core"
)

// freshDistance computes SND(a, b) on a one-shot handle with the
// ground cache disabled: fresh cost materialization and fresh SSSP for
// every term.
func freshDistance(g *Graph, a, b State, opts Options) (Result, error) {
	nw := NewNetwork(g, opts, EngineConfig{GroundCacheBytes: -1})
	defer nw.Close()
	return nw.Distance(context.Background(), a, b)
}

// openNetwork returns a handle over g that is closed when the test ends.
func openNetwork(t testing.TB, g *Graph, opts Options) *Network {
	nw := NewNetwork(g, opts, EngineConfig{})
	t.Cleanup(func() { nw.Close() })
	return nw
}

func lineNetwork() *Graph {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

func TestQuickstartFlow(t *testing.T) {
	g := lineNetwork()
	before := NewState(4)
	before[0] = Positive
	after := before.Clone()
	after[1] = Positive
	nw := openNetwork(t, g, DefaultOptions())
	ctx := context.Background()
	d, err := nw.DistanceValue(ctx, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("distance = %v, want > 0", d)
	}
	same, err := nw.DistanceValue(ctx, before, before)
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Errorf("identity distance = %v", same)
	}
}

func TestDistanceMatchesDirect(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 40, OutDeg: 3, Exponent: -2.3, Seed: 1})
	ev := NewEvolution(g, 10, 2)
	a := ev.State()
	b := ev.Step(0.3, 0.05)
	fast, err := freshDistance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Direct(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.SND-direct.SND) > 1e-6*math.Max(1, direct.SND) {
		t.Errorf("fast %v != direct %v", fast.SND, direct.SND)
	}
}

func TestSeriesAndAnomalies(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 120, OutDeg: 4, Exponent: -2.3, Seed: 3})
	ev := NewEvolution(g, 20, 4)
	states := []State{ev.State()}
	for i := 0; i < 5; i++ {
		states = append(states, ev.Step(0.15, 0.02))
	}
	nw := openNetwork(t, g, DefaultOptions())
	dists, err := nw.Series(context.Background(), states)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 5 {
		t.Fatalf("series length %d", len(dists))
	}
	// The free pipeline over the handle's measure and the handle method
	// must agree to the bit.
	want, err := nw.DetectAnomalies(context.Background(), states)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Measure{
		nw.Measure(),
		HammingMeasure(g.N()),
		L1Measure(g.N()),
		QuadFormMeasure(g),
		WalkDistMeasure(g),
	} {
		rep, err := DetectAnomalies(states, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(rep.Distances) != 5 || len(rep.Scores) != 5 {
			t.Fatalf("%s: report lengths %d/%d", m.Name(), len(rep.Distances), len(rep.Scores))
		}
		if m.Name() == want.Name && !reflect.DeepEqual(rep, want) {
			t.Errorf("DetectAnomalies over the measure %+v != handle %+v", rep, want)
		}
	}
}

func TestROCFacade(t *testing.T) {
	curve, err := ROC([]float64{3, 1, 2}, []bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if auc := AUC(curve); auc != 1 {
		t.Errorf("AUC = %v", auc)
	}
	if tpr := TPRAtFPR(curve, 0.3); tpr != 1 {
		t.Errorf("TPR = %v", tpr)
	}
}

func TestPredictionFacade(t *testing.T) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 150, OutDeg: 4, Exponent: -2.5, Reciprocity: 0.3, Seed: 5})
	ev := NewEvolution(g, 20, 6)
	states := []State{ev.State()}
	for i := 0; i < 4; i++ {
		states = append(states, ev.Step(0.2, 0.02))
	}
	truth := states[len(states)-1]
	rng := rand.New(rand.NewSource(7))
	targets := SelectPredictionTargets(truth, 6, rng)
	if len(targets) == 0 {
		t.Skip("no active users in fixture")
	}
	current := BlankTargets(truth, targets)
	for _, p := range []Predictor{
		DistanceBasedPredictor(HammingMeasure(g.N()), 30, 8),
		NhoodVotingPredictor(g, 9),
		CommunityLPPredictor(g, 10),
	} {
		preds, err := p.Predict(context.Background(), states[:len(states)-1], current, targets)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		acc, err := PredictionAccuracy(truth, targets, preds)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0 || acc > 1 {
			t.Errorf("%s: accuracy %v out of range", p.Name(), acc)
		}
	}
}

func TestEMDFacade(t *testing.T) {
	d := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	p := []float64{1, 0, 0}
	q := []float64{0, 0, 1}
	v, err := EMD(p, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("EMD = %v, want 2", v)
	}
	s, err := EMDStar(p, q, d, EMDStarConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s != 2 {
		t.Errorf("EMDStar = %v, want 2 (balanced totals)", s)
	}
}

func TestGraphIOFacade(t *testing.T) {
	g := lineNetwork()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Errorf("round-trip edges %d != %d", g2.M(), g.M())
	}
	st := State{Positive, Negative, Neutral, Positive}
	buf.Reset()
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadState(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if st.DiffCount(st2) != 0 {
		t.Error("state round-trip diverged")
	}
}

func TestTwitterCorpusFacade(t *testing.T) {
	d := TwitterCorpus(TwitterConfig{Users: 200, AvgDegree: 10, Quarters: 6, Seed: 1})
	if len(d.States) != 6 || d.Graph.N() != 200 {
		t.Fatalf("corpus shape wrong")
	}
	if len(d.Truth()) != 5 {
		t.Fatalf("truth length %d", len(d.Truth()))
	}
}
