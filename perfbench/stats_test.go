package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"snd"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > quantile(xs, 0.9) {
			beyond++
		}
	}
	if beyond != minTail {
		t.Fatalf("%d samples beyond p90 of 100, want %d", beyond, minTail)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {0, 0.5, false}} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// fakeClock advances only when told: sleeping moves it to the wake-up
// time, and each request moves it by its service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	ms := time.Millisecond
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms, 1 * ms}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	got := openLoop(clk, t0, due, func() bool { return false }, func(i int) error {
		clk.now = clk.now.Add(service[i])
		return nil
	})
	// Request 1 stalls for 25 ms: requests 2 and 3 are sent late, and
	// their latency counts from when they were due, not sent.
	want := []struct{ late, lat time.Duration }{
		{0, 5 * ms}, {0, 25 * ms}, {15 * ms, 20 * ms}, {10 * ms, 15 * ms}, {5 * ms, 6 * ms},
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Due != t0.Add(due[i]) {
			t.Errorf("request %d due at %v, want %v", i, got[i].Due.Sub(t0), due[i])
		}
		if got[i].Lateness() != w.late || got[i].Latency() != w.lat {
			t.Errorf("request %d: lateness %v latency %v, want %v and %v", i, got[i].Lateness(), got[i].Latency(), w.late, w.lat)
		}
		if got[i].Service() != service[i] {
			t.Errorf("request %d: service %v, want %v", i, got[i].Service(), service[i])
		}
	}

	// A stop that fires leaves the rest unsent.
	clk = &fakeClock{now: t0}
	sent := 0
	out := openLoop(clk, t0, due, func() bool { return clk.now.Sub(t0) > 15*ms }, func(int) error { sent++; return nil })
	if len(out) != 2 || sent != 2 {
		t.Fatalf("stopped loop recorded %d and sent %d requests, want 2", len(out), sent)
	}
}

func TestArrivals(t *testing.T) {
	horizon := 1000 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), 10, horizon)
	b := arrivals(rand.New(rand.NewSource(7)), 10, horizon)
	if len(a) != len(b) {
		t.Fatal("the same seed must give the same schedule")
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= horizon || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("offset %d: %v (same seed %v), must be sorted and below %v", i, a[i], b[i], horizon)
		}
	}
	if len(a) != 10000 {
		t.Fatalf("%d arrivals at 10/s over %v, want 10000", len(a), horizon)
	}
	// Uniform times: about a tenth of them in each tenth of the horizon.
	tenth := 0
	for _, x := range a {
		if x < horizon/10 {
			tenth++
		}
	}
	if tenth < 900 || tenth > 1100 {
		t.Fatalf("%d of 10000 arrivals in the first tenth", tenth)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Overlapping children count once; the part past the parent's
		// end is clipped.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	totals := map[string]spanTotal{}
	for _, st := range selfTimes(spans) {
		totals[st.Name] = st
	}
	// Covered by children: [10,50] + [60,70] + [90,100] = 60 of 100.
	if got := totals["parent"].SelfS * 1e6; !near(got, 40) {
		t.Errorf("parent self = %v us, want 40", got)
	}
	// Children: 20 + 30 + 10 + 30 total, minus the grandchild's 10.
	if got := totals["child"].TotalS * 1e6; !near(got, 90) {
		t.Errorf("child total = %v us, want 90", got)
	}
	if got := totals["child"].SelfS * 1e6; !near(got, 80) {
		t.Errorf("child self = %v us, want 80", got)
	}
	if totals["child"].Count != 4 {
		t.Errorf("child count = %d, want 4", totals["child"].Count)
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.start("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.overheadRatio(time.Second) != 0 || tr.write("unused") != nil {
		t.Fatal("a disabled tracer must record nothing")
	}
}

func near(a, b float64) bool { return a-b < 1e-6 && b-a < 1e-6 }

func TestStatsDeltas(t *testing.T) {
	a := snd.EngineStats{SSSPTime: 3 * time.Second, FlowTime: time.Second, Terms: 8, TermsWarmExact: 1, TermsWarmSolved: 1, FlowSolves: 6, GroundRefs: 4, GroundBytes: 100}
	b := snd.EngineStats{SSSPTime: 1 * time.Second, Terms: 4, TermsApproxCoarse: 3, PairBounds: 2, GroundRefs: 2, GroundBytes: 300}
	sum := addStats(a, b)
	if sum.SSSPTime != 4*time.Second || sum.Terms != 12 || sum.TermsApproxCoarse != 3 || sum.PairBounds != 2 || sum.FlowSolves != 6 {
		t.Fatalf("addStats counters: %+v", sum)
	}
	if sum.GroundRefs != 4 || sum.GroundBytes != 300 {
		t.Fatalf("addStats gauges must keep the largest reading: refs %d bytes %d", sum.GroundRefs, sum.GroundBytes)
	}
	// A window's delta: counters difference, gauges current.
	d := counters{Engine: sum}.sub(counters{Engine: a})
	if d.Engine.Terms != 4 || d.Engine.SSSPTime != time.Second || d.Engine.GroundBytes != 300 {
		t.Fatalf("window delta: %+v", d.Engine)
	}

	r := &run{layers: map[string]float64{}}
	engineLayers(r, a, 2*time.Second, 2, 0)
	if got := r.layers["core.warm_hit_ratio"]; got != 0.25 {
		t.Errorf("warm hit ratio = %v, want 2/8", got)
	}
	if got := r.layers["core.busy_ratio"]; got != 1 {
		t.Errorf("busy ratio = %v, want 4 s busy / (2 workers * 2 s)", got)
	}
	if got := r.layers["core.approx_exact"]; got != 0 {
		t.Errorf("approx_exact on an exact run = %v, want 0", got)
	}
	engineLayers(r, b, time.Second, 2, 10)
	if got := r.layers["core.approx_exact"]; got != 1 {
		t.Errorf("approx_exact = %v, want 4 terms - 3 decided", got)
	}

	rt := runtimeSnap{GCCycles: 2, AllocBytes: 10, LiveBytes: 7}.add(runtimeSnap{GCCycles: 1, AllocBytes: 5, LiveBytes: 3})
	if rt.GCCycles != 3 || rt.AllocBytes != 15 || rt.LiveBytes != 7 {
		t.Errorf("runtime add: %+v", rt)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
snd_http_request_duration_seconds_sum{route="step"} 1.5
snd_http_request_duration_seconds_count{route="step"} 3
snd_admission_rejected_total{scope="global"} 2
snd_admission_rejected_total{scope="tenant"} 5
snd_wal_records_total 17
`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m.sum("step") != 1.5 || m.count("step") != 3 || m.count("query") != 0 {
		t.Errorf("histogram reads: sum %v count %v", m.sum("step"), m.count("step"))
	}
	if m.total("snd_admission_rejected_total") != 7 || m.total("snd_wal_records_total") != 17 {
		t.Errorf("totals: %v %v", m.total("snd_admission_rejected_total"), m.total("snd_wal_records_total"))
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue the
// program emits identical to the one BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q of BENCHMARK.json is not a workload of the program", w.Name)
		}
	}
}

// TestServiceMS checks the monitor's robust service charge: count
// times the mean trimmed of each tenth, so one stalled request does
// not move it.
func TestServiceMS(t *testing.T) {
	if got := serviceMS(nil); got != 0 {
		t.Errorf("serviceMS(nil) = %v, want 0", got)
	}
	svc := []float64{900, 10, 12, 11, 10, 12, 11, 10, 12, 0.1}
	if got, want := serviceMS(svc), 10*11.0; got != want {
		t.Errorf("serviceMS = %v, want %v", got, want)
	}
	if got := trimmedMean([]float64{1, 2, 3}, 0.1); got != 2 {
		t.Errorf("trimmedMean of 3 samples = %v, want 2 (nothing trimmed)", got)
	}
}
