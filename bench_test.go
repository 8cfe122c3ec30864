package snd

// Benchmarks, one per table and figure of the paper's evaluation
// section, at bench-friendly sizes (cmd/sndbench regenerates the full
// tables; the committed BENCH_*.json snapshots record the runs).
// Ablation benchmarks cover the design choices that change the cost or
// the value: Dijkstra heap, ground-cost model, and bank allocation.

import (
	"context"
	"math/rand"
	"testing"

	"snd/internal/dynamics"
	"snd/internal/opinion"
	"snd/internal/pqueue"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	return ScaleFreeGraph(ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 1,
	})
}

func benchStatePair(b *testing.B, g *Graph, nDelta int) (State, State) {
	b.Helper()
	ev := NewEvolution(g, g.N()/10, 2)
	base := ev.Step(0.3, 0.02)
	mod := base.Clone()
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(g.N())
	for _, u := range perm[:nDelta] {
		if mod[u] == Neutral {
			mod[u] = Positive
		} else {
			mod[u] = mod[u].Opposite()
		}
	}
	return base, mod
}

func benchDistance(b *testing.B, g *Graph, x, y State, opts Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := freshDistance(g, x, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7AnomalySeries measures the anomaly-pipeline unit of
// work: one SND between adjacent evolution states (Fig. 7's inner loop).
func BenchmarkFig7AnomalySeries(b *testing.B) {
	g := benchGraph(b, 2000)
	ev := NewEvolution(g, 80, 4)
	x := ev.StepSample(200, 0.12, 0.01)
	y := ev.StepSample(200, 0.12, 0.01)
	benchDistance(b, g, x, y, DefaultOptions())
}

// BenchmarkFig8ROC measures one labelled-transition evaluation of the
// ROC experiment: a cascade tick scored by SND.
func BenchmarkFig8ROC(b *testing.B) {
	g := benchGraph(b, 2000)
	rng := rand.New(rand.NewSource(5))
	ev := NewEvolution(g, 50, 6)
	for i := 0; i < 6; i++ {
		ev.StepSample(200, 0.25, 0.01)
	}
	base := ev.State()
	after, _ := ICCStep(g, base, 0.06, rng)
	opts := DefaultOptions()
	opts.Clusters = BFSClusterLabels(g, 64)
	benchDistance(b, g, base, after, opts)
}

// BenchmarkFig9Twitter measures one quarterly transition of the Twitter
// corpus under SND.
func BenchmarkFig9Twitter(b *testing.B) {
	d := TwitterCorpus(TwitterConfig{Users: 2000, AvgDegree: 20, Seed: 7})
	opts := DefaultOptions()
	opts.Clusters = BFSClusterLabels(d.Graph, 64)
	benchDistance(b, d.Graph, d.States[6], d.States[7], opts)
}

// BenchmarkTable1Prediction measures one candidate evaluation of the
// distance-based prediction search (Table 1's inner loop).
func BenchmarkTable1Prediction(b *testing.B) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 1000, OutDeg: 5, Exponent: -2.5, Reciprocity: 0.6, Seed: 8})
	ev := NewEvolution(g, 100, 9)
	var states []State
	for i := 0; i < 4; i++ {
		states = append(states, ev.Step(0.15, 0.01))
	}
	latest := states[len(states)-1]
	candidate := latest.Clone()
	rng := rand.New(rand.NewSource(10))
	targets := SelectPredictionTargets(latest, 10, rng)
	for _, u := range targets {
		candidate[u] = Positive
	}
	opts := DefaultOptions()
	opts.Clusters = BFSClusterLabels(g, 64)
	benchDistance(b, g, latest, candidate, opts)
}

// BenchmarkFig10ICCSeparation measures one ICC-vs-random transition
// evaluation (Fig. 10's inner loop).
func BenchmarkFig10ICCSeparation(b *testing.B) {
	g := ScaleFreeGraph(ScaleFreeConfig{N: 1500, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: 11})
	pairs := dynamics.GenerateTransitions(g, 1, 150, 0.25, 12)
	benchDistance(b, g, pairs[0].Before, pairs[0].After, DefaultOptions())
}

// BenchmarkFig11ScaleN sweeps the network size with n-delta fixed —
// the Fig. 11 series for the fast method.
func BenchmarkFig11ScaleN(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		g := benchGraph(b, n)
		x, y := benchStatePair(b, g, 100)
		b.Run(sizeName("n", n), func(b *testing.B) {
			benchDistance(b, g, x, y, DefaultOptions())
		})
	}
}

// BenchmarkFig11Direct benches the dense "CPLEX-style" baseline at the
// sizes it can still handle, showing the super-cubic blowup of Fig. 11.
func BenchmarkFig11Direct(b *testing.B) {
	// n=400 already takes ~3 minutes per evaluation (the point of the
	// figure); the bench records the blowup at sizes that keep the
	// suite runnable.
	for _, n := range []int{100, 200} {
		g := benchGraph(b, n)
		x, y := benchStatePair(b, g, n/10)
		b.Run(sizeName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DirectDistance(g, x, y, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12ScaleNDelta sweeps n-delta with the network fixed —
// the Fig. 12 series.
func BenchmarkFig12ScaleNDelta(b *testing.B) {
	g := benchGraph(b, 5000)
	for _, nd := range []int{50, 200, 800} {
		x, y := benchStatePair(b, g, nd)
		b.Run(sizeName("ndelta", nd), func(b *testing.B) {
			benchDistance(b, g, x, y, DefaultOptions())
		})
	}
}

// --- Ablations ---

// BenchmarkAblationHeap compares the Dijkstra priority queues inside
// the Theorem 4 pipeline.
func BenchmarkAblationHeap(b *testing.B) {
	g := benchGraph(b, 5000)
	x, y := benchStatePair(b, g, 200)
	for _, heap := range []pqueue.Kind{pqueue.KindBinary, pqueue.KindDial, pqueue.KindRadix} {
		opts := DefaultOptions()
		opts.Heap = heap
		b.Run(heap.String(), func(b *testing.B) {
			benchDistance(b, g, x, y, opts)
		})
	}
}

// BenchmarkAblationModel compares the three ground-cost models.
func BenchmarkAblationModel(b *testing.B) {
	g := benchGraph(b, 2000)
	x, y := benchStatePair(b, g, 100)
	for _, model := range []opinion.PenaltyModel{
		opinion.DefaultAgnostic, opinion.DefaultICC, opinion.DefaultLinearThreshold,
	} {
		opts := DefaultOptions()
		opts.Costs = opinion.DefaultGroundCosts(model)
		b.Run(model.Name(), func(b *testing.B) {
			benchDistance(b, g, x, y, opts)
		})
	}
}

// BenchmarkAblationBanks compares bank allocations: one bank per user
// (Theorem 4), coarse BFS clusters (Fig. 4), and a single global bank
// (the EMD-alpha degenerate case).
func BenchmarkAblationBanks(b *testing.B) {
	g := benchGraph(b, 2000)
	x, y := benchStatePair(b, g, 100)
	cases := map[string][]int{
		"per-user":   nil,
		"64-cluster": BFSClusterLabels(g, 64),
		"global":     make([]int, g.N()),
	}
	for _, name := range []string{"per-user", "64-cluster", "global"} {
		opts := DefaultOptions()
		opts.Clusters = cases[name]
		b.Run(name, func(b *testing.B) {
			benchDistance(b, g, x, y, opts)
		})
	}
}

// --- Engine (parallel batch) benchmarks ---

func benchSeriesStates(b *testing.B, g *Graph, count int) []State {
	b.Helper()
	ev := NewEvolution(g, g.N()/10, 13)
	states := make([]State, count)
	for i := range states {
		states[i] = ev.StepSample(g.N()/20, 0.15, 0.01)
	}
	return states
}

// BenchmarkSeriesSequential is the pre-engine baseline: one sequential
// one-shot Distance per adjacent pair.
func BenchmarkSeriesSequential(b *testing.B) {
	g := benchGraph(b, 2000)
	states := benchSeriesStates(b, g, 10)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(states); j++ {
			if _, err := freshDistance(g, states[j], states[j+1], opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSeriesEngine runs the same series on the concurrent engine
// at several worker counts (workers=1 isolates scratch/cache reuse;
// workers=NumCPU adds multicore scheduling).
func BenchmarkSeriesEngine(b *testing.B) {
	g := benchGraph(b, 2000)
	states := benchSeriesStates(b, g, 10)
	for _, workers := range []int{1, 0} {
		e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: workers})
		b.Run(sizeName("workers", e.Workers()), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Series(context.Background(), states); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMatrix measures the deduplicated all-pairs batch (the
// state-index / clustering workload).
func BenchmarkEngineMatrix(b *testing.B) {
	g := benchGraph(b, 1000)
	states := benchSeriesStates(b, g, 8)
	e := NewEngine(g, DefaultOptions(), EngineConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Matrix(context.Background(), states); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(prefix string, v int) string {
	switch {
	case v >= 1000 && v%1000 == 0:
		return prefix + "=" + itoa(v/1000) + "k"
	default:
		return prefix + "=" + itoa(v)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
