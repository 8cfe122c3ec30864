// Command perfbench is the repository's benchmark: it runs one
// workload against the snd library and its serving stack, checks the
// outputs, and prints its metrics as one JSON object on the last line
// of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload analyze|monitor|approx --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, read from spans the benchmark records around its
// own calls into each layer and from counters the layers expose. A
// traced run also writes its spans to .bench_build/traces/. The exit
// code is 1 when an output mismatches or a workload stops (or starts)
// loading a layer it claims to bypass. See README.md for the
// workloads and what each metric should and should not move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed params.json
var paramsJSON []byte

// metricDef is one metric of the catalogue, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them (see README.md for their reading per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"pairs_per_s", "1/s", "higher", 0.25},
}

// perLayer is what the traced run reports; a layer a workload
// bypasses reads 0 there.
var perLayer = []metricDef{
	{Name: "sssp.busy_s", Unit: "s", Better: "lower"},
	{Name: "sssp.runs", Unit: "count", Better: "lower"},
	{Name: "sssp.runs_per_pair", Unit: "count", Better: "lower"},
	{Name: "flow.busy_s", Unit: "s", Better: "lower"},
	{Name: "flow.cold_solves", Unit: "count", Better: "lower"},
	{Name: "core.terms_warm_exact", Unit: "count", Better: "higher"},
	{Name: "core.terms_warm_solved", Unit: "count", Better: "higher"},
	{Name: "core.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.ground_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.ground_refs", Unit: "count", Better: "lower"},
	{Name: "core.ground_budget_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.bound_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.terms_bound_decided", Unit: "count", Better: "higher"},
	{Name: "core.pair_bounds", Unit: "count", Better: "lower"},
	{Name: "core.pairs_decided", Unit: "count", Better: "higher"},
	{Name: "core.terms", Unit: "count", Better: "lower"},
	{Name: "core.terms_bipartite", Unit: "count", Better: "higher"},
	{Name: "core.terms_network", Unit: "count", Better: "lower"},
	{Name: "core.n_delta_mean", Unit: "count", Better: "lower"},
	{Name: "core.n_delta_max", Unit: "count", Better: "lower"},
	{Name: "core.busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.approx_coarse", Unit: "count", Better: "higher"},
	{Name: "core.approx_gap", Unit: "count", Better: "higher"},
	{Name: "emd.sinkhorn_terms", Unit: "count", Better: "lower"},
	{Name: "core.approx_exact", Unit: "count", Better: "lower"},
	{Name: "core.approx_gap_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.step_server_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.distance_server_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "serve.repeat_query_share", Unit: "ratio", Better: "higher"},
	{Name: "wal.records", Unit: "count", Better: "lower"},
	{Name: "wal.records_per_step", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.dir_mb", Unit: "MB", Better: "lower"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "setup.graph_s", Unit: "s", Better: "lower"},
	{Name: "setup.states_s", Unit: "s", Better: "lower"},
	{Name: "setup.tenant_s", Unit: "s", Better: "lower"},
	{Name: "setup.put_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.late_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "monitor.step_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.step_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.step_slo_ratio", Unit: "ratio", Better: "higher"},
	{Name: "monitor.distance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.distance_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.nearest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.recovery_s", Unit: "s", Better: "lower"},
}

// workloads maps each workload name BENCHMARK.json lists to its body.
var workloads = map[string]func(*run){"analyze": runAnalyze, "monitor": runMonitor, "approx": runApprox}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	params   params
	tr       *tracer
	began    time.Time

	attempted, failed int64
	problems          []string // mismatches and bypass-assertion failures

	e2e    map[string]float64
	layers map[string]float64
}

// check records a correctness problem when ok is false; it counts as
// a failed operation, so a mismatch also lowers ok_ratio.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
}

// checkChecksum compares the checksum of a run with the default seed
// and the recorded --seconds with the one params.json records for the
// workload; other runs have none to compare with.
func (r *run) checkChecksum(got, want float64, what string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s checksum %s\n", what, formatFloat(got))
	if r.seed != r.params.DefaultSeed || r.seconds != time.Duration(r.params.ChecksumSeconds)*time.Second || want == 0 {
		return
	}
	r.check(math.Float64bits(got) == math.Float64bits(want),
		"%s checksum %s, want %s (params.json, seed %d)", what, formatFloat(got), formatFloat(want), r.seed)
}

func formatFloat(f float64) string { return fmt.Sprintf("%.17g", f) }

func main() {
	workload := flag.String("workload", "", "workload: analyze, monitor or approx")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	var p params
	if err := json.Unmarshal(paramsJSON, &p); err != nil {
		fatalf("params.json: %v", err)
	}
	body, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("usage: perfbench --workload analyze|monitor|approx --seed N --seconds S --trace 0|1")
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		params:   p,
		tr:       newTracer(*trace == 1),
		began:    time.Now(),
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %d trace %d on %s, %d CPUs, GOMAXPROCS %d, %d engine workers, %s\n",
		r.workload, r.seed, *seconds, *trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), engineWorkers(), runtime.Version())

	body(r)

	r.failed = min(r.failed, r.attempted)
	if r.attempted > 0 {
		r.e2e["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	report(r, *trace == 1)
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// report prints every metric readably, then the result line.
func report(r *run, traced bool) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
		vals["trace.overhead_ratio"] = r.tr.overheadRatio(time.Since(r.began))
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-28s %16.6f %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("attempted %d, failed %d, problems %d\n", r.attempted, r.failed, len(r.problems))
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
