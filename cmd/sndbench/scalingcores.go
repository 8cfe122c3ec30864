package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snd"
)

// checkScaling (-checkscaling) turns the scalingcores experiment into
// a CI gate: within the host's physical core count, wall time must not
// regress as workers are added (small tolerance for runner noise), and
// checksum divergence across worker counts is always fatal.
var checkScaling bool

type scalingRow struct {
	Workload string  `json:"workload"`
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	Speedup  float64 `json:"speedup_vs_1_worker"`
	Checksum float64 `json:"checksum"`
}

type scalingSnapshot struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUModel  string `json:"cpu_model"`
	CPUs      int    `json:"cpus"`

	Users  int `json:"users"`
	Edges  int `json:"edges"`
	States int `json:"states"`
	Ticks  int `json:"ticks"`

	WorkerAxis []int        `json:"worker_axis"`
	Rows       []scalingRow `json:"rows"`
	// ChecksumsIdentical is always true in a committed snapshot: the
	// run aborts on divergence. It is recorded so the JSON is
	// self-describing.
	ChecksumsIdentical bool `json:"checksums_identical_across_workers"`
	// MonotoneWithinCores reports whether, for every workload, adding
	// workers never slowed the run while the worker count stayed
	// within the host's cores. Worker counts beyond NumCPU are
	// expected to oversubscribe and are exempt.
	MonotoneWithinCores bool `json:"speedup_monotone_within_cores"`
}

// scalingWorkerAxis is the cores axis: powers of two from 1, capped at
// 32 and at twice the host's cores (beyond that every added worker is
// pure oversubscription and the rows stop saying anything new), but
// always reaching at least 8 so a small host still exercises the
// contention paths under oversubscription.
func scalingWorkerAxis() []int {
	maxW := 2 * runtime.NumCPU()
	if maxW < 8 {
		maxW = 8
	}
	if maxW > 32 {
		maxW = 32
	}
	var ws []int
	for w := 1; w <= maxW; w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// runScalingCores measures the full production pipeline — goal-pruned
// SSSP fan-out, sharded ground provider, the engine's warm ring, bound
// screening — across a worker axis, on the four workload shapes the
// repo's applications reduce to: Series (cold engine and warm
// second pass), StepFrom (the delta-monitoring tick), Matrix, and
// nearest-neighbor queries. Per workload, the distance checksum must
// be bit-identical at every worker count (the engine's determinism
// contract); the run aborts otherwise. Emits BENCH_scaling.json via
// -benchjson.
func runScalingCores(sc scale, seed int64) {
	ctx := context.Background()
	n, count, ticks := sc.scalingN, sc.scalingStates, sc.scalingTicks
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 120,
	})
	ev := snd.NewEvolution(g, n/10, seed+121)
	states := make([]snd.State, count)
	for i := range states {
		states[i] = ev.StepSample(n/20, 0.15, 0.01)
	}
	opts := snd.DefaultOptions()
	opts.Clusters = snd.BFSClusterLabels(g, 64)

	// The Step workload's delta stream is precomputed so every worker
	// count replays the identical tick sequence (flips drawn from a
	// small volatile pool, the contested users that flip repeatedly in
	// polar dynamics).
	rng := rand.New(rand.NewSource(seed + 122))
	base := states[0].Clone()
	volatile := make([]int, 32)
	for i := range volatile {
		volatile[i] = rng.Intn(n)
	}
	const stepDeltaK = 8
	deltas := make([]snd.StateDelta, ticks)
	cur := base.Clone()
	for t := range deltas {
		var d snd.StateDelta
		used := make(map[int]bool, stepDeltaK)
		for len(d) < stepDeltaK {
			u := volatile[rng.Intn(len(volatile))]
			if used[u] {
				continue
			}
			used[u] = true
			op := snd.Opinion(rng.Intn(3) - 1)
			for op == cur[u] {
				op = snd.Opinion(rng.Intn(3) - 1)
			}
			d = append(d, snd.OpinionChange{User: u, Opinion: op})
		}
		deltas[t] = d
		for _, ch := range d {
			cur[ch.User] = ch.Opinion
		}
	}

	// Nearest-neighbor queries: perturbations of indexed states, fixed
	// across worker counts.
	nnQueries := make([]snd.State, sc.scalingNNQueries)
	for i := range nnQueries {
		q := states[i%count].Clone()
		for j := 0; j < 20; j++ {
			q[rng.Intn(n)] = snd.Opinion(rng.Intn(3) - 1)
		}
		nnQueries[i] = q
	}

	ws := scalingWorkerAxis()
	fmt.Printf("scalingcores: %d workloads x workers %v, |V| = %d, |E| = %d, %d states, %d ticks, %d cpus\n\n",
		5, ws, g.N(), g.M(), count, ticks, runtime.NumCPU())

	type measurement struct {
		seconds  float64
		checksum float64
	}
	// measure runs one workload at one worker count on a fresh handle
	// (cold engine; the warm Series row warms its own handle first).
	measure := func(workload string, w int) measurement {
		nw := snd.NewNetwork(g, opts, snd.EngineConfig{Workers: w})
		defer nw.Close()
		switch workload {
		case "series_cold", "series_warm":
			if workload == "series_warm" {
				if _, err := nw.Series(ctx, states); err != nil {
					fatalf("scalingcores warmup w=%d: %v", w, err)
				}
			}
			start := time.Now()
			out, err := nw.Series(ctx, states)
			dur := time.Since(start)
			if err != nil {
				fatalf("scalingcores %s w=%d: %v", workload, w, err)
			}
			var sum float64
			for _, v := range out {
				sum += v
			}
			return measurement{dur.Seconds(), sum}
		case "step":
			cur := base
			var sum float64
			start := time.Now()
			for t, d := range deltas {
				next, res, err := nw.StepFrom(ctx, cur, d)
				if err != nil {
					fatalf("scalingcores step w=%d tick %d: %v", w, t, err)
				}
				cur = next
				sum += res.SND
			}
			return measurement{time.Since(start).Seconds(), sum}
		case "matrix":
			m := sc.scalingMatrix
			if m > count {
				m = count
			}
			start := time.Now()
			mat, err := nw.Matrix(ctx, states[:m])
			dur := time.Since(start)
			if err != nil {
				fatalf("scalingcores matrix w=%d: %v", w, err)
			}
			var sum float64
			for i := range mat {
				for j := i + 1; j < len(mat); j++ {
					sum += mat[i][j]
				}
			}
			return measurement{dur.Seconds(), sum}
		case "nn":
			ix := nw.Index(states)
			var sum float64
			start := time.Now()
			for qi, q := range nnQueries {
				nbrs, err := ix.NearestNeighbors(ctx, q, sc.scalingNNK)
				if err != nil {
					fatalf("scalingcores nn w=%d query %d: %v", w, qi, err)
				}
				for _, nb := range nbrs {
					sum += nb.Dist
				}
			}
			return measurement{time.Since(start).Seconds(), sum}
		}
		panic("unknown workload " + workload)
	}

	workloads := []string{"series_cold", "series_warm", "step", "matrix", "nn"}
	var rows []scalingRow
	base1 := make(map[string]measurement) // workload -> w=1 measurement
	for _, workload := range workloads {
		fmt.Printf("%-12s", workload)
		for _, w := range ws {
			m := measure(workload, w)
			if w == 1 {
				base1[workload] = m
			} else if m.checksum != base1[workload].checksum {
				fatalf("scalingcores %s: checksum at %d workers (%v) differs from 1 worker (%v)",
					workload, w, m.checksum, base1[workload].checksum)
			}
			rows = append(rows, scalingRow{
				Workload: workload,
				Workers:  w,
				Seconds:  m.seconds,
				Speedup:  base1[workload].seconds / m.seconds,
				Checksum: m.checksum,
			})
			fmt.Printf("  w=%-2d %8.3fs (%.2fx)", w, m.seconds, base1[workload].seconds/m.seconds)
		}
		fmt.Println()
	}

	// Monotonicity within the host's cores: adding workers up to
	// NumCPU must not slow any workload (15% tolerance absorbs runner
	// noise on short rows). Beyond NumCPU workers oversubscribe and
	// are exempt — there the requirement is only that results stayed
	// identical, which was asserted above.
	monotone := true
	cpus := runtime.NumCPU()
	for _, workload := range workloads {
		var prev *scalingRow
		for i := range rows {
			r := &rows[i]
			if r.Workload != workload || r.Workers > cpus {
				continue
			}
			if prev != nil && r.Seconds > prev.Seconds*1.15 {
				monotone = false
				fmt.Printf("NOT MONOTONE: %s slowed from %.3fs at %d workers to %.3fs at %d workers\n",
					workload, prev.Seconds, prev.Workers, r.Seconds, r.Workers)
			}
			prev = r
		}
	}
	if monotone {
		fmt.Printf("\nspeedup monotone within %d cores; checksums identical across all worker counts\n", cpus)
	} else if checkScaling {
		fatalf("scalingcores: speedup not monotone in workers within %d cores", cpus)
	}

	if benchJSONPath != "" {
		snap := scalingSnapshot{
			GoVersion:           runtime.Version(),
			GOOS:                runtime.GOOS,
			GOARCH:              runtime.GOARCH,
			CPUModel:            hostCPUModel(),
			CPUs:                cpus,
			Users:               g.N(),
			Edges:               g.M(),
			States:              count,
			Ticks:               ticks,
			WorkerAxis:          ws,
			Rows:                rows,
			ChecksumsIdentical:  true,
			MonotoneWithinCores: monotone,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatalf("scalingcores snapshot: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(benchJSONPath, data, 0o644); err != nil {
			fatalf("scalingcores snapshot: %v", err)
		}
		fmt.Printf("snapshot written to %s\n", benchJSONPath)
	}
}
