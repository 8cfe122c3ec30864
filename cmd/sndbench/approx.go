package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"snd"
)

// approxPoint is one epsilon of the speed/error frontier.
type approxPoint struct {
	Epsilon float64 `json:"epsilon"`
	Seconds float64 `json:"seconds"`
	// Speedup is the exact Series wall clock over this epsilon's.
	Speedup float64 `json:"speedup"`
	// MaxGap is the widest certified envelope (UB - LB) returned; the
	// in-run checks assert MaxGap <= Epsilon and that every exact
	// value sits inside its envelope.
	MaxGap float64 `json:"max_gap"`
	// MaxErr is the largest observed |approx - exact|, necessarily
	// <= MaxGap.
	MaxErr float64 `json:"max_err"`
	// Stage attribution, out of Terms: terms decided by the relaxed
	// row-bound gate over rows filled by column (coarse) or by source
	// (gap), and by the entropic stage.
	TermsApproxCoarse   int64 `json:"terms_approx_coarse"`
	TermsApproxGap      int64 `json:"terms_approx_gap"`
	TermsApproxSinkhorn int64 `json:"terms_approx_sinkhorn"`
	Terms               int64 `json:"terms"`
	SSSPRuns            int   `json:"sssp_runs"`
}

type approxSnapshot struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUModel  string `json:"cpu_model"`
	CPUs      int    `json:"cpus"`

	Users          int     `json:"users"`
	Edges          int     `json:"edges"`
	States         int     `json:"states"`
	MeanFlips      float64 `json:"mean_flips"`
	MaxExactSND    float64 `json:"max_exact_snd"`
	SeriesChecksum float64 `json:"series_checksum"`

	// Exact baseline and the Epsilon = 0 run, which must be
	// checksum-identical to it (verified bit-for-bit in-run).
	ExactSeriesSeconds float64 `json:"exact_series_seconds"`
	Eps0SeriesSeconds  float64 `json:"eps0_series_seconds"`
	Eps0Identical      bool    `json:"eps0_identical"`

	// Frontier holds the certified speed/error trade-off, tightest
	// epsilon first.
	Frontier []approxPoint `json:"frontier"`

	// Matrix at the most generous frontier epsilon.
	MatrixStates        int     `json:"matrix_states"`
	MatrixEpsilon       float64 `json:"matrix_epsilon"`
	MatrixExactSeconds  float64 `json:"matrix_exact_seconds"`
	MatrixApproxSeconds float64 `json:"matrix_approx_seconds"`
	MatrixSpeedup       float64 `json:"matrix_speedup"`
	MatrixMaxGap        float64 `json:"matrix_max_gap"`
}

// runApprox measures the certified-error approximation tier on a
// monitoring workload: a scale-free network whose state advances by
// cascade-local activations each tick. The exact Series is the
// baseline; an Epsilon = 0 run must reproduce it bit-for-bit, and each
// frontier epsilon must return envelopes that contain the exact values
// and respect the budget — every check is fatal in-run, so a snapshot
// only exists if the certification contract held.
func runApprox(sc scale, seed int64) {
	ctx := context.Background()
	n := sc.approxN
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 120,
	})
	ev := snd.NewEvolution(g, sc.approxAdopters, seed+121)
	states := make([]snd.State, sc.approxStates)
	for i := range states {
		states[i] = ev.StepSample(sc.approxTries, 0.5, 0.05)
	}
	meanFlips := 0.0
	for i := 0; i+1 < len(states); i++ {
		meanFlips += float64(states[i].DiffCount(states[i+1]))
	}
	meanFlips /= float64(len(states) - 1)
	opts := snd.DefaultOptions()
	opts.Clusters = snd.BFSClusterLabels(g, 64)
	fmt.Printf("approx tier: certified envelopes, |V| = %d, |E| = %d, %d states, %.0f flips/tick, 1 worker\n\n",
		g.N(), g.M(), len(states), meanFlips)

	series := func(eps float64) ([]snd.Result, time.Duration, snd.EngineStats) {
		nw := snd.NewNetwork(g, opts, snd.EngineConfig{Workers: 1})
		defer nw.Close()
		start := time.Now()
		out, err := nw.SeriesEps(ctx, states, eps)
		if err != nil {
			fatalf("approx series (eps = %g): %v", eps, err)
		}
		return out, time.Since(start), nw.Engine().Stats()
	}

	exact, exactDur, _ := series(0)
	maxSND, checksum := 0.0, 0.0
	for _, r := range exact {
		checksum += r.SND
		if r.SND > maxSND {
			maxSND = r.SND
		}
	}
	fmt.Printf("%-34s %v (max SND %.3f)\n", "exact series", exactDur.Round(time.Millisecond), maxSND)

	// Epsilon = 0 must be the exact path, bit for bit.
	zero, zeroDur, _ := series(0)
	for i := range exact {
		if math.Float64bits(zero[i].SND) != math.Float64bits(exact[i].SND) {
			fatalf("approx eps=0 step %d diverged: %v vs exact %v", i, zero[i].SND, exact[i].SND)
		}
		if zero[i].LB != zero[i].SND || zero[i].UB != zero[i].SND {
			fatalf("approx eps=0 step %d envelope not degenerate: [%v, %v]", i, zero[i].LB, zero[i].UB)
		}
	}
	fmt.Printf("%-34s %v (bit-identical to exact)\n\n", "eps = 0 series", zeroDur.Round(time.Millisecond))

	fracs := []float64{0.01, 0.05, 0.20}
	frontier := make([]approxPoint, 0, len(fracs))
	fmt.Printf("%-12s %-12s %-9s %-12s %-12s %s\n", "epsilon", "seconds", "speedup", "max gap", "max err", "coarse/gap/sinkhorn of terms")
	for _, frac := range fracs {
		eps := frac * maxSND
		res, dur, stats := series(eps)
		maxGap, maxErr, runs := 0.0, 0.0, 0
		for i, r := range res {
			slack := 1e-9 * (1 + exact[i].SND)
			if !(r.LB <= r.SND && r.SND <= r.UB) {
				fatalf("approx eps=%g step %d: SND %v outside own envelope [%v, %v]", eps, i, r.SND, r.LB, r.UB)
			}
			if r.UB-r.LB > eps {
				fatalf("approx eps=%g step %d: envelope width %v exceeds budget", eps, i, r.UB-r.LB)
			}
			if exact[i].SND < r.LB-slack || exact[i].SND > r.UB+slack {
				fatalf("approx eps=%g step %d: exact %v outside certified envelope [%v, %v]",
					eps, i, exact[i].SND, r.LB, r.UB)
			}
			if g := r.UB - r.LB; g > maxGap {
				maxGap = g
			}
			if e := math.Abs(r.SND - exact[i].SND); e > maxErr {
				maxErr = e
			}
			runs += r.SSSPRuns
		}
		pt := approxPoint{
			Epsilon:             eps,
			Seconds:             dur.Seconds(),
			Speedup:             exactDur.Seconds() / dur.Seconds(),
			MaxGap:              maxGap,
			MaxErr:              maxErr,
			TermsApproxCoarse:   stats.TermsApproxCoarse,
			TermsApproxGap:      stats.TermsApproxGap,
			TermsApproxSinkhorn: stats.TermsApproxSinkhorn,
			Terms:               stats.Terms,
			SSSPRuns:            runs,
		}
		frontier = append(frontier, pt)
		fmt.Printf("%-12.4f %-12.3f %-9.2f %-12.4f %-12.4f %d/%d/%d of %d\n",
			eps, pt.Seconds, pt.Speedup, maxGap, maxErr,
			pt.TermsApproxCoarse, pt.TermsApproxGap, pt.TermsApproxSinkhorn, pt.Terms)
	}
	fmt.Println()

	// Matrix at the most generous epsilon, against the exact matrix.
	mStates := states
	if len(mStates) > sc.approxMatrix {
		mStates = mStates[:sc.approxMatrix]
	}
	mEps := fracs[len(fracs)-1] * maxSND
	matrix := func(eps float64) ([][]float64, float64, time.Duration) {
		nw := snd.NewNetwork(g, opts, snd.EngineConfig{Workers: 1})
		defer nw.Close()
		start := time.Now()
		m, gap, err := nw.MatrixEps(ctx, mStates, eps)
		if err != nil {
			fatalf("approx matrix (eps = %g): %v", eps, err)
		}
		return m, gap, time.Since(start)
	}
	exactM, _, exactMDur := matrix(0)
	approxM, mGap, approxMDur := matrix(mEps)
	if mGap > mEps {
		fatalf("approx matrix gap %v exceeds budget %v", mGap, mEps)
	}
	for i := range exactM {
		for j := range exactM[i] {
			if math.Abs(approxM[i][j]-exactM[i][j]) > mEps+1e-9*(1+exactM[i][j]) {
				fatalf("approx matrix (%d,%d): |%v - %v| exceeds budget %v",
					i, j, approxM[i][j], exactM[i][j], mEps)
			}
		}
	}
	mSpeedup := exactMDur.Seconds() / approxMDur.Seconds()
	fmt.Printf("matrix (%d states, eps = %.4f): %v -> %v (%.2fx), max gap %.4f\n",
		len(mStates), mEps, exactMDur.Round(time.Millisecond), approxMDur.Round(time.Millisecond),
		mSpeedup, mGap)

	if benchJSONPath == "" {
		return
	}
	snap := approxSnapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUModel:  hostCPUModel(),
		CPUs:      runtime.NumCPU(),

		Users:          g.N(),
		Edges:          g.M(),
		States:         len(states),
		MeanFlips:      meanFlips,
		MaxExactSND:    maxSND,
		SeriesChecksum: checksum,

		ExactSeriesSeconds: exactDur.Seconds(),
		Eps0SeriesSeconds:  zeroDur.Seconds(),
		Eps0Identical:      true, // fatal above otherwise

		Frontier: frontier,

		MatrixStates:        len(mStates),
		MatrixEpsilon:       mEps,
		MatrixExactSeconds:  exactMDur.Seconds(),
		MatrixApproxSeconds: approxMDur.Seconds(),
		MatrixSpeedup:       mSpeedup,
		MatrixMaxGap:        mGap,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatalf("approx snapshot: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(benchJSONPath, data, 0o644); err != nil {
		fatalf("approx snapshot: %v", err)
	}
	fmt.Printf("\nsnapshot written to %s\n", benchJSONPath)
}
