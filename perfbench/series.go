package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snd"
)

// networkSeed generates each workload's social graph. The graph is the
// platform under test and stays the same for every --seed; the seed
// drives the opinion evolution and the request traffic, so runs with
// different seeds differ in what happens on the network, not in the
// network itself.
const networkSeed = 1_000_014

// Sub-seeds: every other input is a function of --seed alone.
func evolutionSeed(seed int64) int64 { return seed*1_000_003 + 29 }
func trafficSeed(seed int64) int64   { return seed*1_000_003 + 47 }

// evolve generates the state sequence of an opinion evolution: Ticks
// transitions after the initial state.
func evolve(g *snd.Graph, p evolutionParams, seed int64) []snd.State {
	ev := snd.NewEvolution(g, p.Adopters, seed)
	states := []snd.State{ev.State()}
	for t := 1; t <= p.Ticks; t++ {
		if p.EventEvery > 0 && t%p.EventEvery == 0 {
			states = append(states, ev.Inject(p.EventFlips))
		} else {
			states = append(states, ev.StepSample(p.Tries, 0.5, 0.05))
		}
	}
	return states
}

// seriesInputs is what set-up produces for a series workload.
type seriesInputs struct {
	g      *snd.Graph
	opts   snd.Options
	states []snd.State
}

// setupSeries builds the graph, the evolution and the cluster labels
// SetupReps times (each from the same seed, so identical) and reports
// the median times. Each set-up starts from a collected heap, whose
// pages the process keeps, so page faults do not dominate the time.
func setupSeries(r *run, p seriesParams) seriesInputs {
	var in seriesInputs
	var total, graphS, statesS []float64
	for i := 0; i < max(1, p.SetupReps); i++ {
		in = seriesInputs{}
		runtime.GC()
		root := r.tr.start("setup", 0, 0)
		t0 := time.Now()
		sp := r.tr.start("setup.graph", root, 0)
		g := snd.ScaleFreeGraph(p.Graph.config(networkSeed))
		r.tr.end(sp)
		t1 := time.Now()
		sp = r.tr.start("setup.evolution", root, 0)
		states := evolve(g, p.Evolution, evolutionSeed(r.seed))
		r.tr.end(sp)
		sp = r.tr.start("setup.clusters", root, 0)
		opts := snd.DefaultOptions()
		opts.Clusters = snd.BFSClusterLabels(g, p.Graph.Clusters)
		r.tr.end(sp)
		t2 := time.Now()
		r.tr.end(root)
		total = append(total, t2.Sub(t0).Seconds())
		graphS = append(graphS, t1.Sub(t0).Seconds())
		statesS = append(statesS, t2.Sub(t1).Seconds())
		in = seriesInputs{g: g, opts: opts, states: states}
	}
	r.e2e["setup_s"] = median(total)
	r.layers["setup.graph_s"] = median(graphS)
	r.layers["setup.states_s"] = median(statesS)
	cleanHeap()
	return in
}

// seriesRun is what the measured rounds produced.
type seriesRun struct {
	first   []snd.Result    // results of the first round
	stats   snd.EngineStats // counter sums over completed rounds, gauge maxima
	results []snd.Result    // every completed round's results
	busy    time.Duration   // summed wall of the completed calls
	rates   []float64       // pairs per second of each completed call
}

// seriesRounds repeats one SeriesEps call on a fresh handle (so every
// round starts cold) until the measured time is up. The first round
// always completes; a later round still running at the deadline is
// cancelled and discarded.
func seriesRounds(r *run, in seriesInputs, eps float64) seriesRun {
	var out seriesRun
	var rt runtimeSnap
	deadline := time.Now().Add(r.seconds)
	for round := 0; ; round++ {
		if round > 0 && !time.Now().Before(deadline) {
			break
		}
		ctx, cancel := context.Background(), func() {}
		if round > 0 {
			ctx, cancel = context.WithDeadline(ctx, deadline)
		}
		sp := r.tr.start("snd.NewNetwork", 0, int64(round+1))
		nw := snd.NewNetwork(in.g, in.opts, snd.EngineConfig{Workers: engineWorkers()})
		r.tr.end(sp)
		r.tr.setSnap(func() counters { return counters{Engine: nw.Engine().Stats(), Runtime: readRuntime()} })
		sp = r.tr.start("Network.SeriesEps", 0, int64(round+1))
		rt0 := readRuntime()
		t0 := time.Now()
		res, err := nw.SeriesEps(ctx, in.states, eps)
		d := time.Since(t0)
		rt = rt.add(readRuntime().sub(rt0))
		r.tr.end(sp)
		st := nw.Engine().Stats()
		nw.Close()
		cancel()
		cleanHeap()
		if err != nil {
			if round > 0 && ctx.Err() != nil {
				break
			}
			r.attempted += int64(len(in.states) - 1)
			r.failed += int64(len(in.states) - 1)
			r.check(false, "series round %d: %v", round, err)
			break
		}
		r.attempted += int64(len(res))
		if round == 0 {
			out.first = res
		}
		for i := range res {
			r.check(sameResult(res[i], out.first[i]), "round %d pair %d: SND %v differs from round 0's %v", round, i, res[i].SND, out.first[i].SND)
		}
		out.results = append(out.results, res...)
		out.stats = addStats(out.stats, st)
		out.busy += d
		out.rates = append(out.rates, float64(len(res))/d.Seconds())
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.e2e["pairs_per_s"] = median(out.rates)
	runtimeLayers(r, rt)
	return out
}

// addStats accumulates per-round engine stats taken on fresh handles:
// counters add, and the retention gauges keep their largest reading.
func addStats(total, round snd.EngineStats) snd.EngineStats {
	return snd.EngineStats{
		SSSPTime:            total.SSSPTime + round.SSSPTime,
		FlowTime:            total.FlowTime + round.FlowTime,
		BoundTime:           total.BoundTime + round.BoundTime,
		Terms:               total.Terms + round.Terms,
		TermsBoundDecided:   total.TermsBoundDecided + round.TermsBoundDecided,
		TermsWarmExact:      total.TermsWarmExact + round.TermsWarmExact,
		TermsWarmSolved:     total.TermsWarmSolved + round.TermsWarmSolved,
		FlowSolves:          total.FlowSolves + round.FlowSolves,
		TermsApproxCoarse:   total.TermsApproxCoarse + round.TermsApproxCoarse,
		TermsApproxGap:      total.TermsApproxGap + round.TermsApproxGap,
		TermsApproxSinkhorn: total.TermsApproxSinkhorn + round.TermsApproxSinkhorn,
		Pairs:               total.Pairs + round.Pairs,
		PairsDecided:        total.PairsDecided + round.PairsDecided,
		PairBounds:          total.PairBounds + round.PairBounds,
		GroundRefs:          max(total.GroundRefs, round.GroundRefs),
		GroundBytes:         max(total.GroundBytes, round.GroundBytes),
	}
}

// sameResult compares two results bit for bit.
func sameResult(a, b snd.Result) bool {
	if math.Float64bits(a.SND) != math.Float64bits(b.SND) || a.NDelta != b.NDelta {
		return false
	}
	for i := range a.Terms {
		if math.Float64bits(a.Terms[i]) != math.Float64bits(b.Terms[i]) {
			return false
		}
	}
	return true
}

// resultLayers derives the per-result layer metrics from results the
// benchmark holds.
func resultLayers(r *run, results []snd.Result) {
	runs, bip, netw, nd, ndMax := 0, 0, 0, 0.0, 0
	for _, res := range results {
		runs += res.SSSPRuns
		nd += float64(res.NDelta)
		ndMax = max(ndMax, res.NDelta)
		for _, e := range res.EnginesUsed {
			switch e {
			case snd.EngineBipartite:
				bip++
			case snd.EngineNetwork:
				netw++
			}
		}
	}
	r.layers["sssp.runs"] = float64(runs)
	r.layers["core.terms_bipartite"] = float64(bip)
	r.layers["core.terms_network"] = float64(netw)
	if len(results) > 0 {
		r.layers["sssp.runs_per_pair"] = float64(runs) / float64(len(results))
		r.layers["core.n_delta_mean"] = nd / float64(len(results))
	}
	r.layers["core.n_delta_max"] = float64(ndMax)
}

// groundBudget is the engine's default ground-distance cache budget
// (snd.EngineConfig: 0 selects 128 MiB), which every workload uses.
const groundBudget = 128 << 20

// engineLayers derives the engine-counter layer metrics from stats
// accumulated over busy seconds of wall on workers workers.
func engineLayers(r *run, st snd.EngineStats, busy time.Duration, workers int, eps float64) {
	l := r.layers
	l["sssp.busy_s"] = st.SSSPTime.Seconds()
	l["flow.busy_s"] = st.FlowTime.Seconds()
	l["flow.cold_solves"] = float64(st.FlowSolves)
	l["core.terms_warm_exact"] = float64(st.TermsWarmExact)
	l["core.terms_warm_solved"] = float64(st.TermsWarmSolved)
	if st.Terms > 0 {
		l["core.warm_hit_ratio"] = float64(st.TermsWarmExact+st.TermsWarmSolved) / float64(st.Terms)
	}
	l["core.ground_bytes"] = float64(st.GroundBytes)
	l["core.ground_refs"] = float64(st.GroundRefs)
	l["core.ground_budget_ratio"] = float64(st.GroundBytes) / groundBudget
	l["core.bound_busy_s"] = st.BoundTime.Seconds()
	l["core.terms_bound_decided"] = float64(st.TermsBoundDecided)
	l["core.pair_bounds"] = float64(st.PairBounds)
	l["core.pairs_decided"] = float64(st.PairsDecided)
	l["core.terms"] = float64(st.Terms)
	if busy > 0 && workers > 0 {
		l["core.busy_ratio"] = (st.SSSPTime + st.FlowTime + st.BoundTime).Seconds() / (float64(workers) * busy.Seconds())
	}
	approx := st.TermsApproxCoarse + st.TermsApproxGap + st.TermsApproxSinkhorn
	l["core.approx_coarse"] = float64(st.TermsApproxCoarse)
	l["core.approx_gap"] = float64(st.TermsApproxGap)
	l["emd.sinkhorn_terms"] = float64(st.TermsApproxSinkhorn)
	if eps > 0 {
		l["core.approx_exact"] = float64(st.Terms - approx)
	}
}

// runtimeLayers reports the Go runtime's counters over a window.
func runtimeLayers(r *run, d runtimeSnap) {
	r.layers["runtime.gc_cycles"] = float64(d.GCCycles)
	r.layers["runtime.gc_pause_ms"] = d.GCPauseS * 1000
	r.layers["runtime.alloc_mb"] = float64(d.AllocBytes) / (1 << 20)
	r.layers["runtime.heap_live_mb"] = float64(d.LiveBytes) / (1 << 20)
}

// checksum sums the SND values of one round in order.
func checksum(results []snd.Result) float64 {
	sum := 0.0
	for _, res := range results {
		sum += res.SND
	}
	return sum
}

// runAnalyze is the paper's anomaly-detection path: a cold exact
// series over an evolution on a fresh handle.
func runAnalyze(r *run) {
	p := r.params.Analyze
	in := setupSeries(r, p)
	out := seriesRounds(r, in, 0)
	if len(out.first) == 0 {
		return
	}
	resultLayers(r, out.results)
	engineLayers(r, out.stats, out.busy, engineWorkers(), 0)
	r.checkChecksum(checksum(out.first), p.Checksum, "analyze")

	// Recompute a sample of pairs on a one-worker handle with the
	// ground and warm caches off: the fan-out, retention and worker
	// count must not change a single bit.
	ref := snd.NewNetwork(in.g, in.opts, snd.EngineConfig{Workers: 1, GroundCacheBytes: -1, WarmCacheBytes: -1})
	defer ref.Close()
	rng := rand.New(rand.NewSource(trafficSeed(r.seed)))
	for k := 0; k < p.VerifyPairs; k++ {
		i := rng.Intn(len(out.first))
		want, err := ref.Distance(context.Background(), in.states[i], in.states[i+1])
		r.check(err == nil, "reference distance %d: %v", i, err)
		r.check(err != nil || sameResult(out.first[i], want), "pair %d: SND %v, one-worker uncached reference %v", i, out.first[i].SND, want.SND)
	}

	// Bypass assertions: cold, exact, no serving stack.
	st := out.stats
	r.check(st.TermsApproxCoarse+st.TermsApproxGap+st.TermsApproxSinkhorn == 0, "analyze loaded the approximation tier")
	r.check(st.TermsWarmExact == 0, "analyze served %d terms from warm bases; its rounds must be cold", st.TermsWarmExact)
	r.check(st.FlowSolves > 0, "analyze ran no flow solves")
	r.check(r.layers["sssp.runs"] > 0, "analyze ran no SSSP")
}

// runApprox is the certified approximation tier on a large graph.
func runApprox(r *run) {
	p := r.params.Approx
	in := setupSeries(r, p)
	out := seriesRounds(r, in, p.Epsilon)
	if len(out.first) == 0 {
		return
	}
	resultLayers(r, out.results)
	engineLayers(r, out.stats, out.busy, engineWorkers(), p.Epsilon)
	r.checkChecksum(checksum(out.first), p.Checksum, "approx")

	maxGap := 0.0
	for i, res := range out.first {
		r.check(res.UB-res.LB <= p.Epsilon, "pair %d: envelope width %v exceeds epsilon %v", i, res.UB-res.LB, p.Epsilon)
		maxGap = max(maxGap, res.UB-res.LB)
	}
	r.layers["core.approx_gap_ratio"] = maxGap / p.Epsilon

	// Certification: the exact distance of a sample of pairs, computed
	// on a fresh handle, must lie inside the envelope the tier returned.
	ref := snd.NewNetwork(in.g, in.opts, snd.EngineConfig{Workers: engineWorkers()})
	defer ref.Close()
	rng := rand.New(rand.NewSource(trafficSeed(r.seed)))
	for k := 0; k < p.VerifyPairs; k++ {
		i := rng.Intn(len(out.first))
		got := out.first[i]
		exact, err := ref.DistanceEps(context.Background(), in.states[i], in.states[i+1], 0)
		if r.checkOK(err == nil, "exact reference distance %d: %v", i, err) {
			fmt.Fprintf(os.Stderr, "perfbench: pair %d: envelope [%v, %v], exact %v\n", i, got.LB, got.UB, exact.SND)
			r.check(got.LB <= exact.SND && exact.SND <= got.UB, "pair %d: exact SND %v outside its envelope [%v, %v]", i, exact.SND, got.LB, got.UB)
		}
	}

	st := out.stats
	r.check(st.TermsApproxCoarse+st.TermsApproxGap+st.TermsApproxSinkhorn > 0, "approx decided no term on the approximation tier")
	r.check(st.TermsWarmExact == 0, "approx served %d terms from warm bases; its rounds must be cold", st.TermsWarmExact)
}
