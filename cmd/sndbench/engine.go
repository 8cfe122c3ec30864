package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"snd"
)

// benchJSONPath, when non-empty (-benchjson), receives a machine-
// readable snapshot of the engine experiment for trajectory tracking
// (the committed BENCH_baseline.json).
var benchJSONPath string

type engineSnapshot struct {
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUModel      string  `json:"cpu_model"`
	CPUs          int     `json:"cpus"`
	Workers       int     `json:"workers"`
	Users         int     `json:"users"`
	Edges         int     `json:"edges"`
	States        int     `json:"states"`
	SeqSeconds    float64 `json:"sequential_series_seconds"`
	EngineSeconds float64 `json:"engine_series_seconds"`
	Speedup       float64 `json:"speedup"`
	Checksum      float64 `json:"distance_checksum"`
}

// runEngine measures the concurrent engine against the sequential
// baseline on the anomaly-series workload: T evolution states over one
// fixed graph, all adjacent SNDs. This is the batch unit the anomaly,
// prediction, and search pipelines all reduce to.
func runEngine(sc scale, seed int64) {
	n, count := sc.fig7N, sc.fig7States
	fmt.Printf("Engine: sequential vs worker-pool Series, |V| = %d, %d states, %d workers\n\n",
		n, count, runtime.GOMAXPROCS(0))
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 70,
	})
	ev := snd.NewEvolution(g, n/10, seed+71)
	states := make([]snd.State, count)
	for i := range states {
		states[i] = ev.StepSample(n/20, 0.15, 0.01)
	}
	opts := snd.DefaultOptions()
	// This experiment measures the worker pool + scratch/cache reuse
	// factor; warm-started solves and bound screening would let the
	// second (measured) Series pass skip the work entirely, so they are
	// pinned off here — the flow experiment measures them.
	opts.NoWarmStart = true
	opts.NoBounds = true

	start := time.Now()
	seq := make([]float64, 0, count-1)
	for i := 0; i+1 < count; i++ {
		r, err := distanceOnce(g, states[i], states[i+1], opts)
		if err != nil {
			fatalf("engine sequential step %d: %v", i, err)
		}
		seq = append(seq, r.SND)
	}
	seqDur := time.Since(start)

	ctx := context.Background()
	nw := snd.NewNetwork(g, opts, snd.EngineConfig{})
	defer nw.Close()
	// Warm once so the snapshot measures the steady state the batch
	// pipelines see (scratch arenas grown, transpose built); the ground
	// cache is shared, so warm-up also fills it, exactly as a second
	// Series call in production would find it.
	if _, err := nw.Series(ctx, states); err != nil {
		fatalf("engine warmup: %v", err)
	}
	start = time.Now()
	par, err := nw.Series(ctx, states)
	if err != nil {
		fatalf("engine series: %v", err)
	}
	engDur := time.Since(start)

	var checksum float64
	for i := range par {
		if par[i] != seq[i] {
			fatalf("engine diverged from sequential at step %d: %v != %v", i, par[i], seq[i])
		}
		checksum += par[i]
	}
	speedup := seqDur.Seconds() / engDur.Seconds()
	fmt.Printf("%-24s %v\n", "sequential Series", seqDur.Round(time.Millisecond))
	fmt.Printf("%-24s %v\n", "engine Series (warm)", engDur.Round(time.Millisecond))
	fmt.Printf("%-24s %.2fx\n", "speedup", speedup)
	fmt.Printf("%-24s %.3f (identical across both paths)\n", "distance checksum", checksum)

	if benchJSONPath == "" {
		return
	}
	snap := engineSnapshot{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUModel:      hostCPUModel(),
		CPUs:          runtime.NumCPU(),
		Workers:       nw.Engine().Workers(),
		Users:         g.N(),
		Edges:         g.M(),
		States:        count,
		SeqSeconds:    seqDur.Seconds(),
		EngineSeconds: engDur.Seconds(),
		Speedup:       speedup,
		Checksum:      checksum,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatalf("engine snapshot: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(benchJSONPath, data, 0o644); err != nil {
		fatalf("engine snapshot: %v", err)
	}
	fmt.Printf("\nsnapshot written to %s\n", benchJSONPath)
}
