package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencyBuckets are the fixed histogram bounds (seconds) for request
// latency: 0.5 ms doubling to ~524 s, spanning sub-millisecond cache
// hits to cold nearest-neighbor and matrix queries, which take minutes
// at a few thousand users. Prometheus convention: cumulative buckets
// plus +Inf.
var latencyBuckets = func() []float64 {
	b := make([]float64, 21)
	for i := range b {
		b[i] = 0.0005 * float64(uint64(1)<<i)
	}
	return b
}()

// metrics aggregates the server's request-level observability:
// request counters by (route, code), latency histograms by route, and
// admission-shed counters by scope. A single mutex guards the maps —
// request rates are HTTP-bound, so contention here is negligible next
// to the distance computations the requests pay for.
type metrics struct {
	mu        sync.Mutex
	requests  map[reqKey]uint64
	latencies map[string]*histogram
	rejected  map[string]uint64 // admission scope -> sheds
	panics    uint64            // handler panics contained by the middleware
}

type reqKey struct {
	route string
	code  int
}

// histogram is one fixed-bucket latency histogram.
type histogram struct {
	counts []uint64 // cumulative per latencyBuckets entry
	sum    float64
	count  uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[reqKey]uint64),
		latencies: make(map[string]*histogram),
		rejected:  make(map[string]uint64),
	}
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{route, code}]++
	h := m.latencies[route]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.latencies[route] = h
	}
	for i, le := range latencyBuckets {
		if secs <= le {
			h.counts[i]++
		}
	}
	h.sum += secs
	h.count++
}

// shed records one admission rejection for scope ("tenant"/"global").
func (m *metrics) shed(scope string) {
	m.mu.Lock()
	m.rejected[scope]++
	m.mu.Unlock()
}

// panicked records one contained handler panic.
func (m *metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// render writes the request-level families in Prometheus text
// exposition format, deterministically ordered.
func (m *metrics) render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP snd_http_requests_total Finished HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE snd_http_requests_total counter")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "snd_http_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP snd_http_request_duration_seconds Request latency by route.")
	fmt.Fprintln(w, "# TYPE snd_http_request_duration_seconds histogram")
	routes := make([]string, 0, len(m.latencies))
	for r := range m.latencies {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		h := m.latencies[r]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "snd_http_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				r, strconv.FormatFloat(le, 'g', -1, 64), h.counts[i])
		}
		fmt.Fprintf(w, "snd_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, h.count)
		fmt.Fprintf(w, "snd_http_request_duration_seconds_sum{route=%q} %g\n", r, h.sum)
		fmt.Fprintf(w, "snd_http_request_duration_seconds_count{route=%q} %d\n", r, h.count)
	}

	fmt.Fprintln(w, "# HELP snd_admission_rejected_total Requests shed by in-flight admission limits.")
	fmt.Fprintln(w, "# TYPE snd_admission_rejected_total counter")
	scopes := make([]string, 0, len(m.rejected))
	for s := range m.rejected {
		scopes = append(scopes, s)
	}
	sort.Strings(scopes)
	for _, s := range scopes {
		fmt.Fprintf(w, "snd_admission_rejected_total{scope=%q} %d\n", s, m.rejected[s])
	}

	fmt.Fprintln(w, "# HELP snd_panics_total Handler panics contained by the recovery middleware.")
	fmt.Fprintln(w, "# TYPE snd_panics_total counter")
	fmt.Fprintf(w, "snd_panics_total %d\n", m.panics)
}

// renderDurability writes the WAL/degradation families. All gauges
// and counters are emitted even without a WAL (enabled 0), so
// dashboards need no existence checks.
func renderDurability(w io.Writer, d durMetrics) {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	fmt.Fprintln(w, "# HELP snd_wal_enabled Whether a write-ahead log is attached.")
	fmt.Fprintln(w, "# TYPE snd_wal_enabled gauge")
	fmt.Fprintf(w, "snd_wal_enabled %d\n", b2i(d.enabled))
	fmt.Fprintln(w, "# HELP snd_degraded Whether the WAL failed and the server is read-only.")
	fmt.Fprintln(w, "# TYPE snd_degraded gauge")
	fmt.Fprintf(w, "snd_degraded %d\n", b2i(d.degraded))
	fmt.Fprintln(w, "# HELP snd_wal_records_total Mutation records appended since boot.")
	fmt.Fprintln(w, "# TYPE snd_wal_records_total counter")
	fmt.Fprintf(w, "snd_wal_records_total %d\n", d.records)
	fmt.Fprintln(w, "# HELP snd_wal_checkpoints_total Snapshot checkpoints committed since boot.")
	fmt.Fprintln(w, "# TYPE snd_wal_checkpoints_total counter")
	fmt.Fprintf(w, "snd_wal_checkpoints_total %d\n", d.checkpoints)
	fmt.Fprintln(w, "# HELP snd_wal_replayed_records Log records replayed at boot.")
	fmt.Fprintln(w, "# TYPE snd_wal_replayed_records gauge")
	fmt.Fprintf(w, "snd_wal_replayed_records %d\n", d.replayed)
	fmt.Fprintln(w, "# HELP snd_wal_recovery_truncated_bytes Corrupt tail bytes dropped at boot recovery.")
	fmt.Fprintln(w, "# TYPE snd_wal_recovery_truncated_bytes gauge")
	fmt.Fprintf(w, "snd_wal_recovery_truncated_bytes %d\n", d.truncated)
}

// renderTenants writes the per-tenant engine families: phase seconds,
// screening counters, retention gauges, and tracked-state counts.
// Called at scrape time with a stable tenant snapshot.
func renderTenants(w io.Writer, infos []tenantMetrics) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].name < infos[j].name })

	counter := func(name, help string, value func(tenantMetrics) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, ti := range infos {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, ti.name, value(ti))
		}
	}
	gauge := func(name, help string, value func(tenantMetrics) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, ti := range infos {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, ti.name, value(ti))
		}
	}
	secs := func(d time.Duration) string {
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }

	counter("snd_engine_sssp_seconds_total", "Engine wall clock spent in the SSSP fan-out (per-worker sum).",
		func(ti tenantMetrics) string { return secs(ti.stats.SSSPTime) })
	counter("snd_engine_flow_seconds_total", "Engine wall clock spent in transportation solves (per-worker sum).",
		func(ti tenantMetrics) string { return secs(ti.stats.FlowTime) })
	counter("snd_engine_bound_seconds_total", "Engine wall clock spent computing bounds (per-worker sum).",
		func(ti tenantMetrics) string { return secs(ti.stats.BoundTime) })
	counter("snd_engine_terms_total", "Bipartite terms evaluated.",
		func(ti tenantMetrics) string { return i64(ti.stats.Terms) })
	counter("snd_engine_terms_bound_decided_total", "Terms decided by the LB == UB gate without a flow solve.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsBoundDecided) })
	counter("snd_engine_terms_warm_exact_total", "Terms served whole from a retained basis.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsWarmExact) })
	counter("snd_engine_terms_warm_solved_total", "Terms solved warm from a transplanted basis.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsWarmSolved) })
	counter("snd_engine_flow_solves_total", "Cold flow solves.",
		func(ti tenantMetrics) string { return i64(ti.stats.FlowSolves) })
	counter("snd_engine_pairs_total", "Pairs entering the batch scheduler.",
		func(ti tenantMetrics) string { return i64(ti.stats.Pairs) })
	counter("snd_engine_pairs_decided_total", "Pairs decided without scheduling (identical states).",
		func(ti tenantMetrics) string { return i64(ti.stats.PairsDecided) })
	counter("snd_engine_approx_solves_total", "Terms decided by the certified approximation tier (all stages).",
		func(ti tenantMetrics) string {
			return i64(ti.stats.TermsApproxCoarse + ti.stats.TermsApproxGap + ti.stats.TermsApproxSinkhorn)
		})
	counter("snd_engine_terms_approx_coarse_total", "Terms decided by the relaxed row-bound gate over rows filled by column.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsApproxCoarse) })
	counter("snd_engine_terms_approx_gap_total", "Terms decided by the relaxed row-bound gate over rows filled by source.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsApproxGap) })
	counter("snd_engine_terms_approx_sinkhorn_total", "Terms decided by the entropic transport stage.",
		func(ti tenantMetrics) string { return i64(ti.stats.TermsApproxSinkhorn) })
	gauge("snd_engine_ground_refs", "Ground provider: live reference-state entries.",
		func(ti tenantMetrics) string { return i64(ti.stats.GroundRefs) })
	gauge("snd_engine_ground_bytes", "Ground provider: retained bytes against the cache budget.",
		func(ti tenantMetrics) string { return i64(ti.stats.GroundBytes) })
	gauge("snd_tenant_states", "Tracked states registered on the tenant.",
		func(ti tenantMetrics) string { return strconv.Itoa(ti.states) })

	fmt.Fprintln(w, "# HELP snd_tenants Registered tenants.")
	fmt.Fprintln(w, "# TYPE snd_tenants gauge")
	fmt.Fprintf(w, "snd_tenants %d\n", len(infos))
}
