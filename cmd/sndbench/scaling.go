package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"snd"
	"snd/internal/core"
	"snd/internal/dynamics"
	"snd/internal/opinion"
	"snd/internal/stats"
)

// runFig10 reproduces Fig. 10: SND separates normal (ICC-generated)
// transitions from anomalous (random-activation) ones at matched
// n-delta, while l1 — determined almost entirely by n-delta — cannot.
func runFig10(sc scale, seed int64) {
	fmt.Printf("Fig. 10: SND and l1 on normal (ICC) vs anomalous (random) transitions\n")
	fmt.Printf("|V| = %d, %d transition pairs with matched activation counts\n\n", sc.fig10N, sc.fig10Pairs)
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: sc.fig10N, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 40,
	})
	pairs := dynamics.GenerateTransitions(g, sc.fig10Pairs, sc.fig10Adopters, 0.25, seed+41)
	// SND is evaluated under two ground-cost models: the default
	// agnostic costs, and — Section 6.4's configuration — the ICC model
	// itself (the transitions were generated by ICC, so SND scores
	// "how ICC-like was this step"). Our integer quantization saturates
	// most non-cascade ICC edges at the same maximal penalty, so the
	// graded agnostic costs separate more sharply.
	clusters := snd.BFSClusterLabels(g, 64)
	agnOpts := snd.DefaultOptions()
	agnOpts.Clusters = clusters
	iccOpts := snd.DefaultOptions()
	iccOpts.Costs = opinion.DefaultGroundCosts(opinion.DefaultICC)
	iccOpts.Clusters = clusters
	agnNet := snd.NewNetwork(g, agnOpts, snd.EngineConfig{})
	defer agnNet.Close()
	iccNet := snd.NewNetwork(g, iccOpts, snd.EngineConfig{})
	defer iccNet.Close()
	measures := []snd.Measure{
		agnNet.Measure(),
		iccNet.Measure(),
		snd.L1Measure(g.N()),
	}
	names := []string{"SND(agnostic)", "SND(icc)", "l1"}
	values := make([][]float64, len(measures))
	perChange := make([][]float64, len(measures))
	var labels []bool
	fmt.Printf("%-8s %-14s %-14s %-10s %s\n", "ndelta", names[0], names[1], names[2], "transition")
	for _, p := range pairs {
		row := make([]float64, len(measures))
		for i, m := range measures {
			v, err := m.Distance(p.Before, p.After)
			if err != nil {
				fatalf("fig10 %s: %v", names[i], err)
			}
			row[i] = v
			values[i] = append(values[i], v)
			pc := 0.0
			if p.NDelta > 0 {
				pc = v / float64(p.NDelta)
			}
			perChange[i] = append(perChange[i], pc)
		}
		labels = append(labels, p.Anomalous)
		kind := "normal"
		if p.Anomalous {
			kind = "ANOMALOUS"
		}
		fmt.Printf("%-8d %-14.1f %-14.1f %-10.1f %s\n", p.NDelta, row[0], row[1], row[2], kind)
	}
	fmt.Println()
	// The paper's claim is separation at matched n-delta: the scatter
	// of distance vs n-delta splits into two bands for SND and one for
	// l1. Per-change values (distance / n-delta) summarize the bands;
	// the AUC uses them as the classifier score.
	for i, name := range names {
		var normal, anom []float64
		for j, v := range perChange[i] {
			if labels[j] {
				anom = append(anom, v)
			} else {
				normal = append(normal, v)
			}
		}
		auc := 0.0
		if curve, err := snd.ROC(perChange[i], labels); err == nil {
			auc = snd.AUC(curve)
		}
		fmt.Printf("%-14s per-change normal %-8.1f anomalous %-8.1f ratio %-6.2f AUC %.3f\n",
			name, stats.Mean(normal), stats.Mean(anom), safeRatio(stats.Mean(anom), stats.Mean(normal)), auc)
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statePairWithNDelta builds (base, modified) states over g where
// exactly nDelta users differ, seeded from a realistic evolution state.
func statePairWithNDelta(g *snd.Graph, nDelta int, seed int64) (snd.State, snd.State) {
	ev := snd.NewEvolution(g, g.N()/10, seed)
	base := ev.Step(0.3, 0.02)
	mod := base.Clone()
	rng := rand.New(rand.NewSource(seed + 1))
	perm := rng.Perm(g.N())
	changed := 0
	for _, u := range perm {
		if changed == nDelta {
			break
		}
		switch mod[u] {
		case opinion.Neutral:
			if rng.Intn(2) == 0 {
				mod[u] = opinion.Positive
			} else {
				mod[u] = opinion.Negative
			}
		default:
			mod[u] = mod[u].Opposite()
		}
		changed++
	}
	return base, mod
}

// timedDistance evaluates one distance on a transient handle and
// returns the wall time, the result, and the engine's phase split: SSSP
// fan-out, transportation solve, and bound-computation time. The phases
// are per-worker sums, so on multicore they can total more than the
// wall clock.
func timedDistance(g *snd.Graph, a, b snd.State, opts snd.Options) (time.Duration, snd.Result, snd.EngineStats) {
	nw := snd.NewNetwork(g, opts, snd.EngineConfig{GroundCacheBytes: -1})
	defer nw.Close()
	start := time.Now()
	res, err := nw.Distance(context.Background(), a, b)
	if err != nil {
		fatalf("distance: %v", err)
	}
	return time.Since(start), res, nw.Engine().Stats()
}

// distanceOnce computes one distance on a transient handle with the
// ground cache disabled (a single pair can never hit it): the
// one-shot cost a caller without a long-lived Network pays.
func distanceOnce(g *snd.Graph, a, b snd.State, opts snd.Options) (snd.Result, error) {
	nw := snd.NewNetwork(g, opts, snd.EngineConfig{GroundCacheBytes: -1})
	defer nw.Close()
	return nw.Distance(context.Background(), a, b)
}

func phaseSplit(st snd.EngineStats) string {
	return fmt.Sprintf("%v/%v/%v",
		st.SSSPTime.Round(time.Millisecond),
		st.FlowTime.Round(time.Millisecond),
		st.BoundTime.Round(time.Millisecond))
}

// runFig11 reproduces Fig. 11: wall time computing SND as the network
// grows with n-delta fixed — the Theorem 4 method vs the direct dense
// simplex baseline (the paper's CPLEX stand-in), which becomes
// intractable orders of magnitude earlier. The phase-split column
// shows where the time goes (SSSP fan-out / flow solve / bounds).
func runFig11(sc scale, seed int64) {
	fmt.Printf("Fig. 11: time computing SND, n-delta = %d fixed, n growing\n\n", sc.fig11NDelta)
	fmt.Printf("%-9s %-12s %-12s %s\n", "n", "our method", "direct", "sssp/flow/bound")
	for _, n := range sc.fig11Sizes {
		g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
			N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 50,
		})
		a, b := statePairWithNDelta(g, sc.fig11NDelta, seed+51)
		fast, _, stats := timedDistance(g, a, b, snd.DefaultOptions())
		directCol := "-"
		if n <= sc.fig11DirectCap {
			start := time.Now()
			if _, err := core.Direct(g, a, b, snd.DefaultOptions()); err != nil {
				fatalf("fig11 direct n=%d: %v", n, err)
			}
			directCol = time.Since(start).Round(time.Millisecond).String()
		}
		fmt.Printf("%-9d %-12v %-12s %s\n", n, fast.Round(time.Millisecond), directCol, phaseSplit(stats))
	}
}

// runFig12 reproduces Fig. 12: wall time computing SND as n-delta grows
// with the network size fixed. The routes column shows the strategy the
// engine picked per term: the bipartite route's cost grows superlinearly
// in n-delta (the paper's Theorem 4 pipeline), and the engine moves a
// term to the network route once its reduced instance outgrows the
// bipartite limit, flattening the curve.
func runFig12(sc scale, seed int64) {
	fmt.Printf("Fig. 12: time computing SND, n = %d fixed, n-delta growing\n\n", sc.fig12N)
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: sc.fig12N, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 60,
	})
	fmt.Printf("%-9s %-14s %-18s %s\n", "ndelta", "time", "sssp/flow/bound", "routes")
	for _, nd := range sc.fig12Deltas {
		a, b := statePairWithNDelta(g, nd, seed+61)
		dur, res, stats := timedDistance(g, a, b, snd.DefaultOptions())
		fmt.Printf("%-9d %-14v %-18s %v\n", nd, dur.Round(time.Millisecond), phaseSplit(stats), res.EnginesUsed)
	}
}
