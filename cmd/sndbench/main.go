// Command sndbench regenerates every table and figure of the paper's
// evaluation section (Section 6). Each experiment prints the same rows
// or series the paper reports; absolute timings and magnitudes depend
// on the machine and the default laptop-scale sizes, but the shapes —
// who wins, by what factor, where crossovers fall — reproduce the
// paper. The committed BENCH_*.json snapshots record measured runs.
//
// Usage:
//
//	sndbench -exp fig7|fig8|fig9|table1|fig10|fig11|fig12|all [flags]
//
// Presets: -preset small (seconds, default), -preset medium (minutes),
// -preset paper (paper-scale sizes; hours on a laptop).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// benchJSONPath, when non-empty (-benchjson), receives a machine-
// readable snapshot of the selected experiment (scalingcores: the
// committed BENCH_scaling.json; approx: BENCH_approx.json).
var benchJSONPath string

type scale struct {
	fig7N, fig7States                 int
	fig8N, fig8States                 int
	fig8AnomPnbr, fig8AnomPext        float64
	fig9Users                         int
	fig9Degree                        float64
	table1N, table1Seeds              int
	table1Targets, table1Assignments  int
	table1Repeats                     int
	fig10N, fig10Pairs, fig10Adopters int
	fig11NDelta                       int
	fig11Sizes                        []int
	fig11DirectCap                    int
	fig12N                            int
	fig12Deltas                       []int

	// scalingcores: the cores-axis experiment (BENCH_scaling.json).
	scalingN, scalingStates, scalingTicks int
	scalingMatrix, scalingNNQueries       int
	scalingNNK                            int

	// approx: the certified-approximation frontier (BENCH_approx.json).
	approxN, approxStates int
	approxAdopters        int
	approxTries           int
	approxMatrix          int
}

var presets = map[string]scale{
	"small": {
		fig7N: 2000, fig7States: 40,
		fig8N: 2000, fig8States: 100,
		// The paper's anomaly dose (Pnbr .08 -> .07) randomizes ~12%
		// of a tick's activations — detectable at paper scale where
		// ticks carry hundreds of activations, but below the noise
		// floor at laptop scale. The small/medium presets raise the
		// dose proportionally; the paper preset uses the exact values.
		fig8AnomPnbr: 0.04, fig8AnomPext: 0.04,
		fig9Users: 2000, fig9Degree: 20,
		table1N: 1000, table1Seeds: 100,
		table1Targets: 10, table1Assignments: 50, table1Repeats: 5,
		fig10N: 1500, fig10Pairs: 12, fig10Adopters: 150,
		fig11NDelta:    100,
		fig11Sizes:     []int{200, 400, 1000, 2000, 5000, 10000, 20000},
		fig11DirectCap: 300,
		fig12N:         5000,
		fig12Deltas:    []int{50, 100, 200, 400, 800, 1500},
		// Small scalingcores doubles as the CI smoke: fast enough per
		// worker count that the whole axis fits a CI job.
		scalingN: 4000, scalingStates: 8, scalingTicks: 12,
		scalingMatrix: 6, scalingNNQueries: 4, scalingNNK: 3,
		// Small approx doubles as the CI certification smoke.
		approxN: 20000, approxStates: 6,
		approxAdopters: 400, approxTries: 3000, approxMatrix: 4,
	},
	"medium": {
		fig7N: 10000, fig7States: 40,
		fig8N: 10000, fig8States: 300,
		fig8AnomPnbr: 0.06, fig8AnomPext: 0.021,
		fig9Users: 10000, fig9Degree: 60,
		table1N: 5000, table1Seeds: 400,
		table1Targets: 20, table1Assignments: 100, table1Repeats: 10,
		fig10N: 10000, fig10Pairs: 20, fig10Adopters: 1000,
		fig11NDelta:    500,
		fig11Sizes:     []int{200, 400, 1000, 5000, 10000, 30000, 50000, 90000},
		fig11DirectCap: 400,
		fig12N:         20000,
		fig12Deltas:    []int{100, 500, 1000, 2000, 4000},
		// Medium scalingcores is the committed BENCH_scaling.json
		// workload: the n = 20000 acceptance graph.
		scalingN: 20000, scalingStates: 10, scalingTicks: 24,
		scalingMatrix: 8, scalingNNQueries: 6, scalingNNK: 3,
		approxN: 200000, approxStates: 6,
		approxAdopters: 4000, approxTries: 20000, approxMatrix: 4,
	},
	"paper": {
		fig7N: 20000, fig7States: 40,
		fig8N: 30000, fig8States: 300,
		fig8AnomPnbr: 0.07, fig8AnomPext: 0.011,
		fig9Users: 10000, fig9Degree: 130,
		table1N: 10000, table1Seeds: 800,
		table1Targets: 20, table1Assignments: 100, table1Repeats: 10,
		fig10N: 20000, fig10Pairs: 30, fig10Adopters: 2000,
		fig11NDelta:    1000,
		fig11Sizes:     []int{200, 400, 1000, 2000, 3000, 4000, 5000, 10000, 30000, 50000, 70000, 90000, 200000},
		fig11DirectCap: 500,
		fig12N:         20000,
		fig12Deltas:    []int{500, 1000, 2000, 4000, 6000, 8000, 10000},
		scalingN:       50000, scalingStates: 12, scalingTicks: 32,
		scalingMatrix: 10, scalingNNQueries: 8, scalingNNK: 4,
		// Paper approx is the committed BENCH_approx.json workload: the
		// n >= 10^6 monitoring series.
		approxN: 1000000, approxStates: 6,
		approxAdopters: 20000, approxTries: 60000, approxMatrix: 4,
	},
}

func main() {
	exp := flag.String("exp", "all", "experiment id: fig7, fig8, fig9, table1, fig10, fig11, fig12, ablation, scalingcores, approx, or all")
	preset := flag.String("preset", "small", "size preset: small, medium, paper")
	seed := flag.Int64("seed", 42, "master random seed")
	flag.StringVar(&benchJSONPath, "benchjson", "", "write the selected experiment's snapshot to this JSON file")
	flag.BoolVar(&checkScaling, "checkscaling", false, "scalingcores: exit nonzero unless speedup is monotone in workers within the host's cores")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	sc, ok := presets[*preset]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown preset %q (small|medium|paper)\n", *preset)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	runners := map[string]func(scale, int64){
		"fig7":         runFig7,
		"fig8":         runFig8,
		"fig9":         runFig9,
		"table1":       runTable1,
		"fig10":        runFig10,
		"fig11":        runFig11,
		"fig12":        runFig12,
		"ablation":     runAblation,
		"scalingcores": runScalingCores,
		"approx":       runApprox,
	}
	order := []string{"fig7", "fig8", "fig9", "table1", "fig10", "fig11", "fig12", "ablation", "scalingcores", "approx"}
	selected := strings.Split(*exp, ",")
	if *exp == "all" {
		selected = order
	}
	for _, id := range selected {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		banner(id)
		start := time.Now()
		run(sc, *seed)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
	}
}

func banner(id string) {
	fmt.Printf("==== %s ====\n", strings.ToUpper(id))
}
