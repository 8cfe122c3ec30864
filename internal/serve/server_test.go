package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snd"
)

// testClient is a thin JSON client over an httptest server.
type testClient struct {
	t    *testing.T
	base string
	hc   *http.Client
}

// doErr issues one request; body and out may be nil. Returns the
// status code, the decoded error body for non-2xx, and any transport
// error. Safe to call from any goroutine.
func (c *testClient) doErr(method, path string, hdr map[string]string, body, out any) (int, ErrorResponse, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, ErrorResponse{}, err
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return 0, ErrorResponse{}, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, ErrorResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, ErrorResponse{}, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, ErrorResponse{}, nil
}

// do is doErr for the test goroutine: transport errors are fatal.
func (c *testClient) do(method, path string, hdr map[string]string, body, out any) (int, ErrorResponse) {
	c.t.Helper()
	code, e, err := c.doErr(method, path, hdr, body, out)
	if err != nil {
		c.t.Fatal(err)
	}
	return code, e
}

// must asserts a 2xx status.
func (c *testClient) must(method, path string, body, out any) {
	c.t.Helper()
	if code, e := c.do(method, path, nil, body, out); code >= 300 {
		c.t.Fatalf("%s %s: %d %s (%s)", method, path, code, e.Error, e.Sentinel)
	}
}

// newTestServer spins up a serve.Server over an httptest listener.
func newTestServer(t *testing.T, cfg Config, deadline time.Duration) (*testClient, *Server) {
	t.Helper()
	srv := NewServer(NewRegistry(cfg), deadline)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Registry().CloseAll()
	})
	return &testClient{t: t, base: hs.URL, hc: hs.Client()}, srv
}

// testGraphSpec is the shared tenant graph of these tests; shadow
// Networks rebuild it from the same spec, so server responses can be
// pinned bit-identical to direct library calls.
func testGraphSpec(n int, seed int64) GraphSpec {
	return GraphSpec{ScaleFree: &ScaleFreeSpec{
		N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: seed,
	}}
}

// shadowNetwork builds the direct-library twin of a tenant created
// from testGraphSpec.
func shadowNetwork(t *testing.T, n int, seed int64) *snd.Network {
	t.Helper()
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: seed,
	})
	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{})
	t.Cleanup(func() { nw.Close() })
	return nw
}

// randomOpinions draws a reproducible opinion vector.
func randomOpinions(n int, activeFrac float64, rng *rand.Rand) []int8 {
	out := make([]int8, n)
	for i := range out {
		if rng.Float64() < activeFrac {
			out[i] = int8(1 - 2*rng.Intn(2))
		}
	}
	return out
}

// toState converts a wire opinion vector to an snd.State.
func toState(ops []int8) snd.State {
	st := make(snd.State, len(ops))
	for i, o := range ops {
		st[i] = snd.Opinion(o)
	}
	return st
}

// randomDelta draws k distinct-user changes that each actually flip
// the given current state.
func randomDelta(cur snd.State, k int, rng *rand.Rand) Delta {
	used := map[int]bool{}
	var d Delta
	for len(d) < k {
		u := rng.Intn(len(cur))
		if used[u] {
			continue
		}
		used[u] = true
		op := int8(rng.Intn(3) - 1)
		for snd.Opinion(op) == cur[u] {
			op = int8(rng.Intn(3) - 1)
		}
		d = append(d, Change{User: u, Opinion: op})
	}
	return d
}

// applyWire applies a wire delta to a shadow state copy.
func applyWire(cur snd.State, d Delta) snd.State {
	next := cur.Clone()
	for _, ch := range d {
		next[ch.User] = snd.Opinion(ch.Opinion)
	}
	return next
}

// TestServeLifecycle walks the whole surface once — create, put
// states, batched steps, every query op, stats, metrics, deletes —
// and pins every numeric response bit-identical to direct library
// calls on the same seed.
func TestServeLifecycle(t *testing.T) {
	const n = 400
	c, _ := newTestServer(t, Config{}, 0)
	ctx := context.Background()

	// Create; duplicate create conflicts; unknown tenant 404s.
	var ti TenantInfo
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "acme", Graph: testGraphSpec(n, 7)}, &ti)
	if ti.Users != n || ti.Edges == 0 {
		t.Fatalf("create: %+v", ti)
	}
	if code, e := c.do("POST", "/v1/tenants", nil, CreateTenantRequest{Name: "acme", Graph: testGraphSpec(n, 7)}, nil); code != http.StatusConflict || e.Sentinel != "Exists" {
		t.Fatalf("duplicate create: %d %+v", code, e)
	}
	if code, e := c.do("GET", "/v1/tenants/nosuch", nil, nil, nil); code != http.StatusNotFound || e.Sentinel != "NotFound" {
		t.Fatalf("unknown tenant: %d %+v", code, e)
	}

	// Track two states and advance one by batched deltas.
	rng := rand.New(rand.NewSource(11))
	opsA := randomOpinions(n, 0.3, rng)
	opsB := randomOpinions(n, 0.3, rng)
	c.must("PUT", "/v1/tenants/acme/states/a", PutStateRequest{Opinions: opsA}, nil)
	c.must("PUT", "/v1/tenants/acme/states/b", PutStateRequest{Opinions: opsB}, nil)

	shadow := shadowNetwork(t, n, 7)
	stA, stB := toState(opsA), toState(opsB)

	const ticks = 5
	deltas := make([]Delta, ticks)
	wantStep := make([]float64, ticks)
	trajectory := []snd.State{stA}
	cur := stA
	for i := range deltas {
		deltas[i] = randomDelta(cur, 3, rng)
		next := applyWire(cur, deltas[i])
		res, err := shadow.Distance(ctx, cur, next)
		if err != nil {
			t.Fatal(err)
		}
		wantStep[i] = res.SND
		cur = next
		trajectory = append(trajectory, next)
	}
	var stepResp StepResponse
	c.must("POST", "/v1/tenants/acme/states/a:step", StepRequest{Deltas: deltas}, &stepResp)
	if len(stepResp.Results) != ticks {
		t.Fatalf("step results: %d, want %d", len(stepResp.Results), ticks)
	}
	for i, r := range stepResp.Results {
		if r.SND == nil || *r.SND != wantStep[i] {
			t.Errorf("step %d: SND %v, want %v", i, r.SND, wantStep[i])
		}
		if r.Version != uint64(i+2) { // version 1 was the PUT
			t.Errorf("step %d: version %d, want %d", i, r.Version, i+2)
		}
	}

	// distance a-b must equal the direct call on the stepped snapshot.
	wantAB, err := shadow.Distance(ctx, cur, stB)
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "distance", States: []string{"a", "b"}}, &q)
	if len(q.Results) != 1 || q.Results[0].SND != wantAB.SND || q.Results[0].Terms != wantAB.Terms {
		t.Errorf("distance: %+v, want SND %v", q.Results, wantAB.SND)
	}
	if q.Versions["a"] != uint64(ticks+1) || q.Versions["b"] != 1 {
		t.Errorf("pinned versions: %v", q.Versions)
	}

	// series + anomalies + matrix + pairs across named snapshots: the
	// server's b state plus the stepped a; verify against the shadow.
	wantSeries, err := shadow.Series(ctx, []snd.State{stB, cur, stB})
	if err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "series", States: []string{"b", "a", "b"}}, &q)
	if !equalF64s(q.Distances, wantSeries) {
		t.Errorf("series: %v, want %v", q.Distances, wantSeries)
	}
	wantRep, err := shadow.DetectAnomalies(ctx, []snd.State{stB, cur, stB})
	if err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "anomalies", States: []string{"b", "a", "b"}}, &q)
	if !equalF64s(q.Scores, wantRep.Scores) || !equalF64s(q.Distances, wantRep.Distances) {
		t.Errorf("anomalies diverged from direct call")
	}
	wantMatrix, err := shadow.Matrix(ctx, []snd.State{stA, cur, stB})
	if err != nil {
		t.Fatal(err)
	}
	// Matrix over fresh tracked copies of the original A (the stepped
	// "a" has moved on): re-put it under a new name.
	c.must("PUT", "/v1/tenants/acme/states/a0", PutStateRequest{Opinions: opsA}, nil)
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "matrix", States: []string{"a0", "a", "b"}}, &q)
	if len(q.Matrix) != len(wantMatrix) {
		t.Fatalf("matrix shape: %d", len(q.Matrix))
	}
	for i := range wantMatrix {
		if !equalF64s(q.Matrix[i], wantMatrix[i]) {
			t.Errorf("matrix row %d: %v, want %v", i, q.Matrix[i], wantMatrix[i])
		}
	}
	wantPair, err := shadow.Pairs(ctx, []snd.StatePair{{A: stA, B: stB}, {A: cur, B: cur}})
	if err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "pairs", Pairs: [][2]string{{"a0", "b"}, {"a", "a"}}}, &q)
	if q.Results[0].SND != wantPair[0].SND || q.Results[1].SND != wantPair[1].SND {
		t.Errorf("pairs: %+v, want %v and %v", q.Results, wantPair[0].SND, wantPair[1].SND)
	}

	// nearest: query vector against the three tracked states.
	queryOps := randomOpinions(n, 0.3, rng)
	ix := shadow.Index([]snd.State{stA, cur, stB})
	wantNb, err := ix.NearestNeighbors(ctx, toState(queryOps), 2)
	if err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/v1/tenants/acme/query", QueryRequest{Op: "nearest", States: []string{"a0", "a", "b"}, Query: queryOps, K: 2}, &q)
	names := []string{"a0", "a", "b"}
	if len(q.Neighbors) != len(wantNb) {
		t.Fatalf("nearest: %d neighbors, want %d", len(q.Neighbors), len(wantNb))
	}
	for i, nb := range wantNb {
		if q.Neighbors[i].State != names[nb.Index] || q.Neighbors[i].Distance != nb.Dist {
			t.Errorf("neighbor %d: %+v, want {%s %v}", i, q.Neighbors[i], names[nb.Index], nb.Dist)
		}
	}

	// Structured errors: bad delta -> 400 ErrDeltaIndex; short series
	// -> 400 ErrShortSeries; wrong-size state -> 400 ErrStateSize.
	if code, e := c.do("POST", "/v1/tenants/acme/states/a:step", nil,
		StepRequest{Deltas: []Delta{{{User: n + 5, Opinion: 1}}}}, nil); code != http.StatusBadRequest || e.Sentinel != "ErrDeltaIndex" {
		t.Errorf("bad delta: %d %+v", code, e)
	}
	if code, e := c.do("POST", "/v1/tenants/acme/query", nil,
		QueryRequest{Op: "series", States: []string{"a"}}, nil); code != http.StatusBadRequest || e.Sentinel != "ErrShortSeries" {
		t.Errorf("short series: %d %+v", code, e)
	}
	if code, e := c.do("PUT", "/v1/tenants/acme/states/bad", nil,
		PutStateRequest{Opinions: []int8{1, 0}}, nil); code != http.StatusBadRequest || e.Sentinel != "ErrStateSize" {
		t.Errorf("bad state size: %d %+v", code, e)
	}

	// Stats: cumulative then windowed — the second windowed call right
	// after covers no work, so its counters are zero.
	var st StatsResponse
	c.must("GET", "/v1/tenants/acme/stats", nil, &st)
	if st.Terms == 0 || st.Window {
		t.Errorf("cumulative stats: %+v", st)
	}
	c.must("GET", "/v1/tenants/acme/stats?window=1", nil, &st)
	c.must("GET", "/v1/tenants/acme/stats?window=1", nil, &st)
	if !st.Window || st.Terms != 0 || st.Pairs != 0 {
		t.Errorf("idle window should be empty: %+v", st)
	}

	// State and tenant lifecycle: list, drop, delete.
	var sl StateList
	c.must("GET", "/v1/tenants/acme/states", nil, &sl)
	if len(sl.States) != 3 {
		t.Fatalf("states: %+v", sl)
	}
	c.must("DELETE", "/v1/tenants/acme/states/a0", nil, nil)
	if code, _ := c.do("DELETE", "/v1/tenants/acme/states/a0", nil, nil, nil); code != http.StatusNotFound {
		t.Errorf("double drop: %d", code)
	}
	c.must("DELETE", "/v1/tenants/acme", nil, nil)
	if code, _ := c.do("POST", "/v1/tenants/acme/query", nil, QueryRequest{Op: "distance", States: []string{"a", "b"}}, nil); code != http.StatusNotFound {
		t.Errorf("query on deleted tenant: %d", code)
	}
}

func equalF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeSnapshotIsolation pins the isolation rule at the registry
// level: a query's pinned snapshots are immutable while concurrent
// steps advance the live state, and the pinned versions identify what
// the query computed on.
func TestServeSnapshotIsolation(t *testing.T) {
	const n = 300
	reg := NewRegistry(Config{})
	defer reg.CloseAll()
	tn, err := reg.Create(CreateTenantRequest{Name: "iso", Graph: testGraphSpec(n, 19)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	ops := randomOpinions(n, 0.3, rng)
	if _, err := tn.putState("s", ops); err != nil {
		t.Fatal(err)
	}

	// Pin, then advance the live state past the pin.
	pinned, versions, err := tn.pin([]string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if versions["s"] != 1 {
		t.Fatalf("pin versions: %v", versions)
	}
	before := pinned[0].Clone()
	ctx := context.Background()
	if _, err := tn.step(ctx, "s", StepRequest{Deltas: []Delta{randomDelta(toState(ops), 4, rng)}}); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot is bit-unchanged, and a fresh pin sees the
	// advanced version.
	if pinned[0].DiffCount(before) != 0 {
		t.Error("pinned snapshot mutated by a concurrent step")
	}
	_, v2, err := tn.pin([]string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if v2["s"] != 2 {
		t.Errorf("post-step version: %v", v2)
	}
}

// TestServeDeadline maps an expired per-request deadline onto 504 with
// the DeadlineExceeded sentinel — the admission-control contract for
// slow queries. The tenant is big enough that a 1 ms deadline always
// expires inside the solvers.
func TestServeDeadline(t *testing.T) {
	const n = 3000
	c, _ := newTestServer(t, Config{}, 0)
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "slow", Graph: testGraphSpec(n, 23)}, nil)
	rng := rand.New(rand.NewSource(24))
	for _, name := range []string{"x", "y", "z", "w"} {
		c.must("PUT", "/v1/tenants/slow/states/"+name, PutStateRequest{Opinions: randomOpinions(n, 0.3, rng)}, nil)
	}
	code, e := c.do("POST", "/v1/tenants/slow/query",
		map[string]string{"X-Snd-Deadline-Ms": "1"},
		QueryRequest{Op: "matrix", States: []string{"x", "y", "z", "w"}}, nil)
	if code != http.StatusGatewayTimeout || e.Sentinel != "DeadlineExceeded" {
		t.Fatalf("deadline query: %d %+v, want 504 DeadlineExceeded", code, e)
	}
	// The server default deadline applies when the request carries
	// none.
	c2, _ := newTestServer(t, Config{}, time.Millisecond)
	c2.must("POST", "/v1/tenants", CreateTenantRequest{Name: "slow", Graph: testGraphSpec(n, 23)}, nil)
	rng = rand.New(rand.NewSource(24))
	for _, name := range []string{"x", "y", "z", "w"} {
		c2.must("PUT", "/v1/tenants/slow/states/"+name, PutStateRequest{Opinions: randomOpinions(n, 0.3, rng)}, nil)
	}
	code, e = c2.do("POST", "/v1/tenants/slow/query", nil,
		QueryRequest{Op: "matrix", States: []string{"x", "y", "z", "w"}}, nil)
	if code != http.StatusGatewayTimeout || e.Sentinel != "DeadlineExceeded" {
		t.Fatalf("default deadline: %d %+v, want 504 DeadlineExceeded", code, e)
	}
}

// TestServeAdmission pins the shedding contract: with the per-tenant
// slot held, requests shed with 429/Admission; with the global slot
// held, likewise; after release, requests are admitted again.
func TestServeAdmission(t *testing.T) {
	const n = 200
	c, srv := newTestServer(t, Config{TenantInFlight: 1, GlobalInFlight: 1}, 0)
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "tight", Graph: testGraphSpec(n, 31)}, nil)
	rng := rand.New(rand.NewSource(32))
	c.must("PUT", "/v1/tenants/tight/states/s", PutStateRequest{Opinions: randomOpinions(n, 0.3, rng)}, nil)

	// Hold the tenant's only slot (which also takes the global one).
	_, release, err := srv.Registry().Acquire("tight")
	if err != nil {
		t.Fatal(err)
	}
	code, e := c.do("POST", "/v1/tenants/tight/query", nil, QueryRequest{Op: "distance", States: []string{"s", "s"}}, nil)
	if code != http.StatusTooManyRequests || e.Sentinel != "Admission" {
		t.Fatalf("tenant shed: %d %+v, want 429 Admission", code, e)
	}
	release()
	c.must("POST", "/v1/tenants/tight/query", QueryRequest{Op: "distance", States: []string{"s", "s"}}, nil)

	// Global exhaustion: a second tenant's slot is free, but the
	// global limit (1) is held by the first tenant's request.
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "other", Graph: testGraphSpec(n, 33)}, nil)
	c.must("PUT", "/v1/tenants/other/states/s", PutStateRequest{Opinions: randomOpinions(n, 0.3, rng)}, nil)
	_, release, err = srv.Registry().Acquire("tight")
	if err != nil {
		t.Fatal(err)
	}
	code, e = c.do("POST", "/v1/tenants/other/query", nil, QueryRequest{Op: "distance", States: []string{"s", "s"}}, nil)
	if code != http.StatusTooManyRequests || e.Sentinel != "Admission" {
		t.Fatalf("global shed: %d %+v, want 429 Admission", code, e)
	}
	release()
}

// TestServeMetrics scrapes /metrics after a little traffic and
// asserts the Prometheus families are present and well-formed.
func TestServeMetrics(t *testing.T) {
	const n = 200
	c, _ := newTestServer(t, Config{}, 0)
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "m1", Graph: testGraphSpec(n, 41)}, nil)
	rng := rand.New(rand.NewSource(42))
	ops := randomOpinions(n, 0.3, rng)
	c.must("PUT", "/v1/tenants/m1/states/s", PutStateRequest{Opinions: ops}, nil)
	c.must("POST", "/v1/tenants/m1/states/s:step", StepRequest{Deltas: []Delta{randomDelta(toState(ops), 3, rng)}}, nil)
	c.must("POST", "/v1/tenants/m1/query", QueryRequest{Op: "distance", States: []string{"s", "s"}}, nil)
	// One shed for the admission counter family.
	if code, _ := c.do("POST", "/v1/tenants/nosuch/query", nil, QueryRequest{Op: "distance"}, nil); code != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", code)
	}

	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`snd_http_requests_total{route="step",code="200"} 1`,
		`snd_http_requests_total{route="query",code="200"} 1`,
		`snd_http_request_duration_seconds_bucket{route="step",le="+Inf"} 1`,
		`snd_engine_terms_total{tenant="m1"}`,
		`snd_engine_ground_bytes{tenant="m1"}`,
		`snd_tenant_states{tenant="m1"} 1`,
		"snd_tenants 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Spot-check exposition format shape: every non-comment line is
	// "name{labels} value" or "name value".
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if !bytes.Contains(line, []byte(" ")) {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

// TestCreateTenantRejectsBadEdgeLists sends edge lists that once
// panicked the decoder (a negative node count, an endpoint past n) or
// ended the process allocating for a huge header. Each must get 400
// with no handler panic, and a valid list must still create a tenant.
func TestCreateTenantRejectsBadEdgeLists(t *testing.T) {
	c, _ := newTestServer(t, Config{}, 0)
	for _, edges := range []string{
		"-1 0",
		"3 1\n0 5",
		"3000000000000 0",
		"# comment first\n4194305 0",
		"3 -1",
	} {
		code, e := c.do("POST", "/v1/tenants", nil, CreateTenantRequest{Name: "bad", Graph: GraphSpec{Edges: edges}}, nil)
		if code != http.StatusBadRequest || e.Sentinel != "BadRequest" {
			t.Errorf("edges %q: %d %+v, want 400 BadRequest", edges, code, e)
		}
	}
	if _, body := fetch(t, c, "/metrics"); !strings.Contains(body, "snd_panics_total 0") {
		t.Fatal("metrics missing snd_panics_total 0")
	}
	var ti TenantInfo
	c.must("POST", "/v1/tenants", CreateTenantRequest{Name: "ok", Graph: GraphSpec{Edges: "3 2\n0 1\n1 2\n"}}, &ti)
	if ti.Users != 3 || ti.Edges != 2 {
		t.Fatalf("create from edge list: %+v", ti)
	}
}
