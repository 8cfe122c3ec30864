// Quickstart: build a tiny follower network, compare network states
// with SND, and see why placement matters as much as volume.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"snd"
)

func main() {
	// A 12-user network: two mutually-following chains rooted at users
	// 0 and 6, joined by a bridge (an edge u->v means v follows u, so
	// posts flow u -> v; mutual follows give edges both ways).
	const n = 12
	b := snd.NewGraphBuilder(n)
	mutual := func(u, v int) { b.AddEdge(u, v); b.AddEdge(v, u) }
	for i := 0; i < 5; i++ {
		mutual(i, i+1) // chain 0 - 1 - ... - 5
		mutual(6+i, 7+i)
	}
	mutual(5, 6) // the bridge between the chains
	g := b.Build()

	// Before: user 0 voices a positive opinion, user 6 a negative one.
	before := snd.NewState(n)
	before[0] = snd.Positive
	before[6] = snd.Negative

	// Scenario A: the positive opinion reaches 0's follower — a change
	// that follows the network's structure.
	nearby := before.Clone()
	nearby[1] = snd.Positive

	// Scenario B: the same volume of change (one new positive user),
	// but deep inside the negative camp's chain.
	faraway := before.Clone()
	faraway[10] = snd.Positive

	// One long-lived handle serves all distance traffic over the graph;
	// every call takes a context so servers can attach deadlines.
	ctx := context.Background()
	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{})
	defer nw.Close()

	dNear, err := nw.DistanceValue(ctx, before, nearby)
	if err != nil {
		log.Fatal(err)
	}
	dFar, err := nw.DistanceValue(ctx, before, faraway)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("One new positive user in both scenarios — identical for")
	fmt.Println("coordinate-wise measures (hamming distance 1 in both):")
	fmt.Printf("  SND, activation next to the + source:     %.2f\n", dNear)
	fmt.Printf("  SND, activation inside the - camp:        %.2f\n", dFar)
	fmt.Printf("  ratio: %.1fx — SND prices the adverse territory the\n", dFar/dNear)
	fmt.Println("  opinion had to cross, not just the number of changes.")

	// The full Result carries the four EMD* terms of eq. 3 and
	// computation statistics; Explain additionally returns the
	// transport plans — who shipped opinion mass where, at what cost.
	res, plans, err := nw.Explain(ctx, before, faraway)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDetails: n-delta=%d, SSSP runs=%d, terms=%v\n",
		res.NDelta, res.SSSPRuns, res.Terms)
	for _, plan := range plans {
		for _, mv := range plan.Moves {
			kind := "move"
			if mv.FromBank {
				kind = "create (bank near " + fmt.Sprint(mv.From) + ")"
			}
			if mv.ToBank {
				kind = "absorb (bank near " + fmt.Sprint(mv.To) + ")"
			}
			fmt.Printf("  %s opinion, D(%s): %s %g unit(s) %d -> %d at cost %d each\n",
				plan.Op, plan.GroundState, kind, mv.Amount, mv.From, mv.To, mv.UnitCost)
		}
	}

	// Online monitoring: hold the current state, then advance it by
	// sparse deltas; StepFrom returns the advanced state and the SND
	// each tick's changes covered. Each delta also feeds the engine's
	// ground-distance provider, which serves the next tick by patching
	// edge costs and repairing shortest-path trees instead of
	// recomputing them — StepFrom cost scales with the delta, and the
	// distances are bit-identical to a full recompute.
	cur, tick1, err := nw.StepFrom(ctx, before, snd.StateDelta{{User: 1, Opinion: snd.Positive}})
	if err != nil {
		log.Fatal(err)
	}
	cur, tick2, err := nw.StepFrom(ctx, cur, snd.StateDelta{{User: 10, Opinion: snd.Positive}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmonitoring by deltas: tick 1 (friendly spread) SND=%.2f, tick 2 (adverse jump) SND=%.2f\n",
		tick1.SND, tick2.SND)

	// Deltas are validated before they advance anything: a change
	// addressing a user outside the graph (or an invalid opinion
	// value) fails with an error wrapping snd.ErrDeltaIndex and
	// returns no state, so cur stays current.
	if _, _, err := nw.StepFrom(ctx, cur, snd.StateDelta{{User: n + 5, Opinion: snd.Positive}}); errors.Is(err, snd.ErrDeltaIndex) {
		fmt.Println("rejected out-of-range delta:", err)
	}
}
