package opinion

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"snd/internal/graph"
	"snd/internal/sssp"
)

func TestOpinionBasics(t *testing.T) {
	if Positive.Opposite() != Negative || Negative.Opposite() != Positive || Neutral.Opposite() != Neutral {
		t.Error("Opposite is wrong")
	}
	if Positive.String() != "+" || Negative.String() != "-" || Neutral.String() != "0" {
		t.Error("String is wrong")
	}
	if !Positive.Valid() || !Neutral.Valid() || Opinion(2).Valid() {
		t.Error("Valid is wrong")
	}
}

func TestStateCountsAndHistogram(t *testing.T) {
	s := State{Positive, Negative, Neutral, Positive, Neutral}
	if s.Count(Positive) != 2 || s.Count(Negative) != 1 || s.Count(Neutral) != 2 {
		t.Error("Count wrong")
	}
	if s.ActiveCount() != 3 {
		t.Errorf("ActiveCount = %d, want 3", s.ActiveCount())
	}
	if got := s.Active(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("Active = %v", got)
	}
	h := s.Histogram(Positive)
	want := []float64{1, 0, 0, 1, 0}
	for i := range h {
		if h[i] != want[i] {
			t.Fatalf("Histogram(+) = %v, want %v", h, want)
		}
	}
	hm := s.Histogram(Negative)
	if hm[1] != 1 || hm[0] != 0 {
		t.Errorf("Histogram(-) = %v", hm)
	}
	f := s.Float()
	if f[0] != 1 || f[1] != -1 || f[2] != 0 {
		t.Errorf("Float = %v", f)
	}
}

func TestDiffCount(t *testing.T) {
	a := State{Positive, Negative, Neutral}
	b := State{Positive, Positive, Negative}
	if d := a.DiffCount(b); d != 2 {
		t.Errorf("DiffCount = %d, want 2", d)
	}
	if d := a.DiffCount(a); d != 0 {
		t.Errorf("DiffCount(self) = %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	a.DiffCount(State{Positive})
}

func TestStateIORoundTrip(t *testing.T) {
	s := State{Positive, Negative, Neutral, Negative}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("len = %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("round trip diverged at %d", i)
		}
	}
}

func TestDecodeStateErrors(t *testing.T) {
	cases := []string{
		"",
		"-3",
		"2\n1",
		"2\n1\n0\n-1",
		"1\n5",
		"1\nx",
		"1\n257",            // wraps to a valid int8 opinion
		"99999999999999\n1", // huge header, one value
	}
	for _, in := range cases {
		if _, err := DecodeState(strings.NewReader(in)); err == nil {
			t.Errorf("DecodeState(%q) succeeded, want error", in)
		}
	}
}

func TestQuantizer(t *testing.T) {
	q := Quantizer{Scale: 1, Max: 8, Epsilon: 1e-3}
	if q.Quantize(1) != 0 {
		t.Error("p=1 should cost 0")
	}
	if q.Quantize(2) != 0 {
		t.Error("p>1 should cost 0")
	}
	if q.Quantize(0) != 8 || q.Quantize(1e-4) != 8 || q.Quantize(math.NaN()) != 8 {
		t.Error("tiny/NaN probabilities should saturate at Max")
	}
	if got := q.Quantize(math.Exp(-3)); got != 3 {
		t.Errorf("Quantize(e^-3) = %d, want 3", got)
	}
	// Monotone: smaller probability never costs less.
	prev := int32(-1)
	for p := 1.0; p > 1e-6; p /= 1.7 {
		c := q.Quantize(p)
		if c < prev {
			t.Fatalf("quantizer not monotone at p=%v", p)
		}
		prev = c
	}
}

func TestNewAgnostic(t *testing.T) {
	if _, err := NewAgnostic(0, 2, 8); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	for _, bad := range [][3]int32{{2, 1, 8}, {0, 0, 8}, {0, 5, 5}, {-1, 2, 8}} {
		if _, err := NewAgnostic(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("invalid triple %v accepted", bad)
		}
	}
}

// lineGraph returns 0 -> 1 -> 2 -> 3.
func lineGraph() *graph.Digraph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

func TestAgnosticPenalties(t *testing.T) {
	g := lineGraph()
	st := State{Positive, Neutral, Negative, Neutral}
	m := DefaultAgnostic
	w := m.Penalties(g, st, Positive)
	// Edge 0->1: spreader +, receiver neutral: Friendly.
	if w[g.EdgeIndex(0, 1)] != m.Friendly {
		t.Errorf("edge 0->1 = %d, want Friendly %d", w[g.EdgeIndex(0, 1)], m.Friendly)
	}
	// Edge 1->2: spreader neutral but receiver holds the adverse
	// opinion: Adverse.
	if w[g.EdgeIndex(1, 2)] != m.Adverse {
		t.Errorf("edge 1->2 = %d, want Adverse %d", w[g.EdgeIndex(1, 2)], m.Adverse)
	}
	// Edge 2->3: spreader adverse: Adverse.
	if w[g.EdgeIndex(2, 3)] != m.Adverse {
		t.Errorf("edge 2->3 = %d, want Adverse %d", w[g.EdgeIndex(2, 3)], m.Adverse)
	}
	// For the negative opinion, edge 2->3 is friendly.
	w = m.Penalties(g, st, Negative)
	if w[g.EdgeIndex(2, 3)] != m.Friendly {
		t.Errorf("edge 2->3 for '-' = %d, want Friendly", w[g.EdgeIndex(2, 3)])
	}
	if w[g.EdgeIndex(0, 1)] != m.Adverse {
		t.Errorf("edge 0->1 for '-' = %d, want Adverse", w[g.EdgeIndex(0, 1)])
	}
	// Neutral spreader, neutral receiver.
	st2 := State{Neutral, Neutral, Neutral, Neutral}
	w = m.Penalties(g, st2, Positive)
	if w[g.EdgeIndex(0, 1)] != m.NeutralC {
		t.Errorf("neutral edge = %d, want %d", w[g.EdgeIndex(0, 1)], m.NeutralC)
	}
}

func TestGroundCosts(t *testing.T) {
	g := lineGraph()
	st := State{Positive, Neutral, Neutral, Neutral}
	gc := DefaultGroundCosts(DefaultAgnostic)
	w := gc.EdgeCosts(g, st, Positive)
	// Friendly edge costs CommCost + Friendly = 1.
	if w[g.EdgeIndex(0, 1)] != 1 {
		t.Errorf("friendly edge cost = %d, want 1", w[g.EdgeIndex(0, 1)])
	}
	for _, c := range w {
		if c < 1 || int64(c) > gc.MaxCost() {
			t.Fatalf("cost %d outside [1, %d] (Assumption 2)", c, gc.MaxCost())
		}
	}
	if gc.MaxCost() != 1+int64(DefaultAgnostic.Adverse) {
		t.Errorf("MaxCost = %d, want %d", gc.MaxCost(), 1+DefaultAgnostic.Adverse)
	}
}

func TestGroundCostsPanics(t *testing.T) {
	g := lineGraph()
	t.Run("stateMismatch", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		DefaultGroundCosts(DefaultAgnostic).EdgeCosts(g, State{Positive}, Positive)
	})
	t.Run("zeroBase", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		gc := GroundCosts{CommCost: 0, Model: DefaultAgnostic}
		gc.EdgeCosts(g, NewState(4), Positive)
	})
}

func TestICCPenalties(t *testing.T) {
	// Star into v=2: active + user 0, active - user 1, neutral 2.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	st := State{Positive, Negative, Neutral, Positive}
	m := DefaultICC
	w := m.Penalties(g, st, Positive)
	// 0->3: both hold op: probability 1, penalty 0.
	if w[g.EdgeIndex(0, 3)] != 0 {
		t.Errorf("0->3 penalty = %d, want 0", w[g.EdgeIndex(0, 3)])
	}
	// 0->2: spreader op, receiver neutral: p = (p-eps)/pa where pa sums
	// both active in-neighbors: (0.5-eps)/1.0 ~ 0.5 -> quantized 1.
	if got := w[g.EdgeIndex(0, 2)]; got != m.Quant.Quantize(0.499) {
		t.Errorf("0->2 penalty = %d, want %d", got, m.Quant.Quantize(0.499))
	}
	// 1->2: spreader holds the adverse opinion: epsilon -> Max.
	if w[g.EdgeIndex(1, 2)] != m.Quant.Max {
		t.Errorf("1->2 penalty = %d, want %d", w[g.EdgeIndex(1, 2)], m.Quant.Max)
	}
}

func TestICCPerEdgeProb(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Build()
	st := State{Positive, Neutral}
	m := ICC{EdgeProb: 0.1, PerEdgeProb: []float64{0.9}, Quant: DefaultQuantizer}
	w := m.Penalties(g, st, Positive)
	// pa(1) = 0.9; p = (0.9 - eps)/0.9 ~ 1 -> penalty 0.
	if w[0] != 0 {
		t.Errorf("penalty = %d, want 0 (p ~ 1)", w[0])
	}
}

func TestLinearThresholdPenalties(t *testing.T) {
	// Two active + in-neighbors of 2, one neutral in-neighbor.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 2)
	b.AddEdge(0, 1)
	g := b.Build()
	st := State{Positive, Positive, Neutral, Neutral}
	m := DefaultLinearThreshold
	w := m.Penalties(g, st, Positive)
	// 0->1: both op: penalty 0.
	if w[g.EdgeIndex(0, 1)] != 0 {
		t.Errorf("0->1 = %d, want 0", w[g.EdgeIndex(0, 1)])
	}
	// 0->2: active in-weight 2 >= theta = 0.3*3: probability
	// (1-eps)*1/2 ~ 0.5 -> quantized 1.
	want := m.Quant.Quantize(0.4995)
	if got := w[g.EdgeIndex(0, 2)]; got != want {
		t.Errorf("0->2 = %d, want %d", got, want)
	}
	// 3->2: neutral spreader: epsilon.
	if w[g.EdgeIndex(3, 2)] != m.Quant.Max {
		t.Errorf("3->2 = %d, want Max", w[g.EdgeIndex(3, 2)])
	}
	// Below threshold: nobody active.
	st2 := State{Neutral, Neutral, Neutral, Positive}
	w = m.Penalties(g, st2, Positive)
	if w[g.EdgeIndex(0, 2)] != m.Quant.Max {
		t.Errorf("below-threshold edge = %d, want Max", w[g.EdgeIndex(0, 2)])
	}
}

// TestQuickModelsRespectAssumption2: every model emits penalties within
// [0, MaxPenalty] for arbitrary states, so GroundCosts stays within
// [1, U].
func TestQuickModelsRespectAssumption2(t *testing.T) {
	g := graph.ErdosRenyi(30, 200, 5)
	models := []PenaltyModel{DefaultAgnostic, DefaultICC, DefaultLinearThreshold}
	prop := func(raw []uint8) bool {
		st := NewState(30)
		for i := 0; i < len(raw) && i < 30; i++ {
			st[i] = Opinion(int8(raw[i]%3) - 1)
		}
		for _, m := range models {
			for _, op := range []Opinion{Positive, Negative} {
				w := m.Penalties(g, st, op)
				for _, c := range w {
					if c < 0 || c > m.MaxPenalty() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGroundDistances(t *testing.T) {
	g := lineGraph()
	st := State{Positive, Positive, Positive, Positive}
	gc := DefaultGroundCosts(DefaultAgnostic)
	var d sssp.Result
	sssp.DijkstraInto(g, gc.EdgeCosts(g, st, Positive), 0, gc.MaxCost(), &d)
	// All-friendly line: cost 1 per hop.
	want := []int64{0, 1, 2, 3}
	for v, x := range want {
		if d.Dist[v] != x {
			t.Errorf("d[0][%d] = %d, want %d", v, d.Dist[v], x)
		}
	}
	if names := []string{DefaultAgnostic.Name(), DefaultICC.Name(), DefaultLinearThreshold.Name()}; names[0] == names[1] || names[1] == names[2] {
		t.Error("model names must be distinct")
	}
}
