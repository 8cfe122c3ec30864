package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// TestExplainMatchesDistance pins Explain's Result to Distance's —
// value, envelope, n-delta and the route reported per term, including
// an identical-states pair whose terms take no route — and each plan's
// moves to its term's value.
func TestExplainMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := graph.ErdosRenyi(50, 300, 71)
	a := randState(50, 0.4, rng)
	for _, b := range []opinion.State{perturb(a, 8, rng), a.Clone()} {
		res, plans, err := Explain(context.Background(), g, a, b, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Distance(g, a, b, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.SND-ref.SND) > 1e-9*math.Max(1, ref.SND) {
			t.Fatalf("Explain SND %v != Distance %v", res.SND, ref.SND)
		}
		if res.LB != res.SND || res.UB != res.SND || math.Abs(res.LB-ref.LB) > 1e-9*math.Max(1, ref.LB) ||
			math.Abs(res.UB-ref.UB) > 1e-9*math.Max(1, ref.UB) {
			t.Fatalf("Explain envelope [%v, %v] around %v, Distance [%v, %v]", res.LB, res.UB, res.SND, ref.LB, ref.UB)
		}
		if res.NDelta != ref.NDelta || res.EnginesUsed != ref.EnginesUsed {
			t.Fatalf("Explain n-delta %d engines %v, Distance %d %v", res.NDelta, res.EnginesUsed, ref.NDelta, ref.EnginesUsed)
		}
		// The moves of each term must add up to the term's value.
		for i, plan := range plans {
			total := 0.0
			for _, mv := range plan.Moves {
				if mv.Amount <= 0 {
					t.Fatalf("term %d: non-positive move %+v", i, mv)
				}
				total += mv.Amount * float64(mv.UnitCost)
			}
			if math.Abs(total-plan.Value) > 1e-6*math.Max(1, plan.Value) {
				t.Fatalf("term %d: moves total %v != term value %v", i, total, plan.Value)
			}
			if plan.Value != res.Terms[i] {
				t.Fatalf("term %d: plan value %v != result term %v", i, plan.Value, res.Terms[i])
			}
		}
	}
}

func TestExplainSimpleActivation(t *testing.T) {
	// 0 -> 1 with a positive user at 0 activating 1: the '+' plans must
	// show bank-supplied mass arriving at user 1.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Build()
	before := opinion.State{opinion.Positive, opinion.Neutral}
	after := opinion.State{opinion.Positive, opinion.Positive}
	res, plans, err := Explain(context.Background(), g, before, after, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SND <= 0 {
		t.Fatal("expected positive distance")
	}
	// Term 0: (before+, after+): banks on the lighter (before) side
	// supply the new activation at user 1.
	if len(plans[0].Moves) == 0 {
		t.Fatal("term 0 has no moves")
	}
	mv := plans[0].Moves[0]
	if !mv.FromBank || mv.From != 0 || mv.To != 1 {
		t.Errorf("unexpected move %+v, want bank@0 -> 1", mv)
	}
	if mv.Amount != 1 {
		t.Errorf("amount = %v, want 1", mv.Amount)
	}
	// Negative terms are empty.
	if len(plans[1].Moves) != 0 || len(plans[3].Moves) != 0 {
		t.Error("negative-opinion terms should be empty")
	}
	// Term 2: (after+, before+): the excess drains into before's bank.
	found := false
	for _, mv := range plans[2].Moves {
		if mv.ToBank {
			found = true
		}
	}
	if !found {
		t.Error("term 2 should drain into a bank")
	}
	if plans[0].GroundState != "G1" || plans[2].GroundState != "G2" {
		t.Errorf("ground states: %q, %q", plans[0].GroundState, plans[2].GroundState)
	}
}

func TestExplainValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, _, err := Explain(context.Background(), g, opinion.NewState(3), opinion.NewState(4), DefaultOptions()); err == nil {
		t.Error("state mismatch accepted")
	}
}
