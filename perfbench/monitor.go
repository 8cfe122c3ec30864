package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"snd"
	"snd/internal/serve"
	"snd/internal/wal"
)

const tenantName = "bench"

// stepPlan is one scheduled ingest request: a batch of deltas to one
// hot state, each advancing it one version.
type stepPlan struct {
	state  int
	deltas []serve.Delta
}

// queryPlan is one scheduled dashboard request: a distance between two
// named states, or (nearest) a search over candidate states for an
// inline query.
type queryPlan struct {
	nearest    bool
	a, b       int
	candidates []int
	query      []int8
}

// monitorInputs is everything the monitor workload generates from its
// seed before the server starts.
type monitorInputs struct {
	g       *snd.Graph
	opts    snd.Options
	initial []snd.State // named state i starts as initial[i]
	steps   []stepPlan
	queries []queryPlan
	// stepDue and queryDue are the requests' send offsets from the
	// start of the load.
	stepDue, queryDue []time.Duration
}

func stateName(i int) string { return fmt.Sprintf("s%02d", i) }

func toWire(st snd.State) []int8 {
	out := make([]int8, len(st))
	for i, o := range st {
		out[i] = int8(o)
	}
	return out
}

func fromWire(ops []int8) snd.State {
	st := make(snd.State, len(ops))
	for i, o := range ops {
		st[i] = snd.Opinion(o)
	}
	return st
}

// planMonitor builds the graph, the named states (consecutive ticks of
// one evolution) and the request schedules.
func planMonitor(r *run, p monitorParams) (monitorInputs, float64, float64) {
	t0 := time.Now()
	g := snd.ScaleFreeGraph(p.Graph.config(networkSeed))
	t1 := time.Now()
	in := monitorInputs{g: g, initial: evolve(g, p.Evolution, evolutionSeed(r.seed))}
	states := len(in.initial)
	in.opts = snd.DefaultOptions()
	in.opts.Clusters = snd.BFSClusterLabels(g, p.Graph.Clusters)

	rng := rand.New(rand.NewSource(trafficSeed(r.seed)))
	opinions := []int8{-1, 0, 1}
	// Each hot state flips users of its own volatile pool only, so it
	// stays within a bounded distance of where it started and the cost
	// of the queries touching it does not grow with the run's length.
	mirror := make([]snd.State, p.HotStates)
	pools := make([][]int, p.HotStates)
	for h := range mirror {
		mirror[h] = in.initial[h].Clone()
		pools[h] = rng.Perm(g.N())[:p.VolatilePool]
	}
	in.stepDue = arrivals(rng, p.StepRate, r.seconds)
	in.queryDue = arrivals(rng, p.QueryRate, r.seconds)
	for k := range in.stepDue {
		sp := stepPlan{state: k % p.HotStates}
		for range p.StepBatch {
			d := make(serve.Delta, p.StepFlips)
			for j, i := range rng.Perm(p.VolatilePool)[:p.StepFlips] {
				u := pools[sp.state][i]
				o := opinions[rng.Intn(3)]
				for o == int8(mirror[sp.state][u]) {
					o = opinions[rng.Intn(3)]
				}
				mirror[sp.state][u] = snd.Opinion(o)
				d[j] = serve.Change{User: u, Opinion: o}
			}
			sp.deltas = append(sp.deltas, d)
		}
		in.steps = append(in.steps, sp)
	}

	// A fixed pool of distance pairs between nearby ticks, so repeats
	// hit unchanged versions; HotShare of them touch an ingested state.
	pool := make([][2]int, p.QueryPairs)
	for i := range pool {
		var a int
		if float64(i) < p.HotShare*float64(p.QueryPairs) {
			a = rng.Intn(p.HotStates)
		} else {
			a = p.HotStates + rng.Intn(states-p.HotStates-2)
		}
		pool[i] = [2]int{a, a + 1 + rng.Intn(2)}
	}
	for k := range in.queryDue {
		if k%p.NearestEvery == p.NearestEvery-1 {
			first := p.HotStates + rng.Intn(states-p.HotStates-p.NearestCandidates+1)
			cands := make([]int, p.NearestCandidates)
			for j := range cands {
				cands[j] = first + j
			}
			q := in.initial[first+rng.Intn(len(cands))].Clone()
			for _, u := range rng.Perm(g.N())[:p.NearestFlips] {
				q[u] = snd.Opinion(opinions[rng.Intn(3)])
			}
			in.queries = append(in.queries, queryPlan{nearest: true, candidates: cands, query: toWire(q)})
			continue
		}
		pr := pool[rng.Intn(len(pool))]
		in.queries = append(in.queries, queryPlan{a: pr[0], b: pr[1]})
	}
	return in, t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
}

// liveServer is one in-process sndserve: registry with a WAL attached,
// HTTP server on a loopback listener.
type liveServer struct {
	reg  *serve.Registry
	hs   *http.Server
	base string
	dir  string
	done chan struct{}
}

func startServer(r *run, dir string, p monitorParams) (*liveServer, error) {
	reg := serve.NewRegistry(serve.Config{})
	sp := r.tr.start("Registry.AttachWAL", 0, 0)
	_, err := reg.AttachWAL(dir, wal.Options{Policy: wal.SyncAlways}, p.CheckpointEvery)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.CloseAll()
		return nil, err
	}
	ls := &liveServer{
		reg:  reg,
		hs:   &http.Server{Handler: serve.NewServer(reg, 0)},
		base: "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return ls, nil
}

// stop shuts the listener, waits for the serve loop, then closes the
// registry (final checkpoint) and removes its directory.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx)
	<-ls.done
	ls.reg.CloseAll()
	_ = os.RemoveAll(ls.dir)
}

func (ls *liveServer) engine() *snd.Engine {
	t, err := ls.reg.Get(tenantName)
	if err != nil {
		return nil
	}
	return t.Network().Engine()
}

// setupMonitor starts a server, creates the tenant and PUTs every
// named state, SetupReps times, each from a collected heap; it keeps
// the last server and reports median set-up times.
func setupMonitor(r *run, p monitorParams, scratch string) (monitorInputs, *liveServer) {
	var in monitorInputs
	var ls *liveServer
	var total, graphS, statesS, tenantS, putS []float64
	for rep := 0; rep < max(1, p.SetupReps); rep++ {
		if ls != nil {
			ls.stop()
		}
		runtime.GC()
		root := r.tr.start("setup", 0, 0)
		t0 := time.Now()
		sp := r.tr.start("setup.inputs", root, 0)
		var gs, ss float64
		in, gs, ss = planMonitor(r, p)
		r.tr.end(sp)
		var err error
		ls, err = startServer(r, filepath.Join(scratch, fmt.Sprintf("wal-%d", rep)), p)
		if err != nil {
			fatalf("monitor: starting server: %v", err)
		}
		c := newClient(ls.base, r.tr)
		c.parent = root
		t1 := time.Now()
		create := serve.CreateTenantRequest{
			Name: tenantName,
			Graph: serve.GraphSpec{ScaleFree: &serve.ScaleFreeSpec{
				N: p.Graph.Users, OutDeg: p.Graph.OutDeg, Exponent: p.Graph.Exponent,
				Reciprocity: p.Graph.Reciprocity, Seed: networkSeed,
			}},
			ClustersK: p.Graph.Clusters,
			Workers:   engineWorkers(),
		}
		if err := c.do("POST", "/v1/tenants", "tenants", 0, create, nil); err != nil {
			fatalf("monitor: creating tenant: %v", err)
		}
		t2 := time.Now()
		for i, st := range in.initial {
			if err := c.do("PUT", "/v1/tenants/"+tenantName+"/states/"+stateName(i), "state", 0,
				serve.PutStateRequest{Opinions: toWire(st)}, nil); err != nil {
				fatalf("monitor: putting state %d: %v", i, err)
			}
		}
		t3 := time.Now()
		c.close()
		r.tr.end(root)
		total = append(total, t3.Sub(t0).Seconds())
		graphS = append(graphS, gs)
		statesS = append(statesS, ss)
		tenantS = append(tenantS, t2.Sub(t1).Seconds())
		putS = append(putS, t3.Sub(t2).Seconds())
	}
	r.e2e["setup_s"] = median(total)
	r.layers["setup.graph_s"] = median(graphS)
	r.layers["setup.states_s"] = median(statesS)
	r.layers["setup.tenant_s"] = median(tenantS)
	r.layers["setup.put_s"] = median(putS)
	cleanHeap()
	return in, ls
}

// stepOut and queryOut are what the clients got back.
type stepOut struct {
	sample
	plan int
	resp serve.StepResponse
}

type queryOut struct {
	sample
	plan int
	resp serve.QueryResponse
}

// runMonitor drives the serving stack: an ingest feeder and a
// dashboard, each an open loop on its own connection, against an
// in-process server with a WAL, then a crash-style recovery.
func runMonitor(r *run) {
	p := r.params.Monitor
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatalf("monitor: %v", err)
	}
	scratch, err := os.MkdirTemp(tmp, "monitor-")
	if err != nil {
		fatalf("monitor: %v", err)
	}
	defer os.RemoveAll(scratch)

	in, ls := setupMonitor(r, p, scratch)
	r.tr.setSnap(func() counters {
		var c counters
		if e := ls.engine(); e != nil {
			c.Engine = e.Stats()
		}
		c.Runtime = readRuntime()
		return c
	})
	mc := newClient(ls.base, nil)
	m0, err := mc.scrape()
	if err != nil {
		fatalf("monitor: scraping /metrics: %v", err)
	}
	eng0, rt0 := ls.engine().Stats(), readRuntime()

	// The load: two open loops, started together.
	feeder, dash := newClient(ls.base, r.tr), newClient(ls.base, r.tr)
	start := time.Now().Add(20 * time.Millisecond)
	cutoff := start.Add(r.seconds + r.seconds/2) // requests not sent by then count as failed
	stop := func() bool { return time.Now().After(cutoff) }
	var steps []stepOut
	var queries []queryOut
	var nearestServer time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		resps := make([]serve.StepResponse, len(in.steps))
		samples := openLoop(wallClock{}, start, in.stepDue, stop, func(i int) error {
			sp := in.steps[i]
			return feeder.do("POST", "/v1/tenants/"+tenantName+"/states/"+stateName(sp.state)+":step", "step", int64(i+1),
				serve.StepRequest{Deltas: sp.deltas}, &resps[i])
		})
		for i, s := range samples {
			steps = append(steps, stepOut{sample: s, plan: i, resp: resps[i]})
		}
	}()
	go func() {
		defer wg.Done()
		resps := make([]serve.QueryResponse, len(in.queries))
		samples := openLoop(wallClock{}, start, in.queryDue, stop, func(i int) error {
			qp := in.queries[i]
			req := serve.QueryRequest{Op: "distance", States: []string{stateName(qp.a), stateName(qp.b)}}
			route := "distance"
			if qp.nearest {
				req = serve.QueryRequest{Op: "nearest", Query: qp.query, K: 1}
				for _, c := range qp.candidates {
					req.States = append(req.States, stateName(c))
				}
				route = "nearest"
			}
			if !qp.nearest || r.tr == nil {
				return dash.do("POST", "/v1/tenants/"+tenantName+"/query", route, int64(i+1), req, &resps[i])
			}
			// Traced runs bracket each nearest query with scrapes, so
			// the query route's server time splits into distance and
			// nearest (the dashboard has one query in flight at most).
			before, _ := mc.scrape()
			err := dash.do("POST", "/v1/tenants/"+tenantName+"/query", route, int64(i+1), req, &resps[i])
			after, _ := mc.scrape()
			nearestServer += time.Duration((after.sum("query") - before.sum("query")) * float64(time.Second))
			return err
		})
		for i, s := range samples {
			queries = append(queries, queryOut{sample: s, plan: i, resp: resps[i]})
		}
	}()
	wg.Wait()
	loadEnd := time.Now()
	r.e2e["peak_rss_mb"] = peakRSSMB()
	eng1, rt1 := ls.engine().Stats(), readRuntime()
	m1, err := mc.scrape()
	if err != nil {
		fatalf("monitor: scraping /metrics: %v", err)
	}
	feeder.close()
	dash.close()
	mc.close()
	window := loadEnd.Sub(start)

	// Latencies, failures and throughput.
	var stepLat, distLat, nearLat, late, stepSvc, distSvc, nearSvc []float64
	acked, withinLimit, pairs := 0, 0, 0
	var nDeltas []float64
	for _, s := range steps {
		late = append(late, ms(s.Lateness()))
		if s.Err != nil {
			continue
		}
		acked++
		pairs += len(s.resp.Results)
		stepLat = append(stepLat, ms(s.Latency()))
		stepSvc = append(stepSvc, ms(s.Service()))
		if ms(s.Latency()) <= p.StepLimitMS {
			withinLimit++
		}
		for _, res := range s.resp.Results {
			nDeltas = append(nDeltas, float64(res.NDelta))
		}
	}
	seen := make(map[string]bool)
	repeats, distances, nearests := 0, 0, 0
	for _, q := range queries {
		late = append(late, ms(q.Lateness()))
		if q.Err != nil {
			continue
		}
		qp := in.queries[q.plan]
		if qp.nearest {
			nearests++
			pairs += len(qp.candidates)
			nearLat = append(nearLat, ms(q.Latency()))
			nearSvc = append(nearSvc, ms(q.Service()))
			continue
		}
		distances++
		pairs++
		distLat = append(distLat, ms(q.Latency()))
		distSvc = append(distSvc, ms(q.Service()))
		if len(q.resp.Results) == 1 {
			nDeltas = append(nDeltas, float64(q.resp.Results[0].NDelta))
		}
		key := fmt.Sprintf("%d/%d@%v", qp.a, qp.b, q.resp.Versions)
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	due := len(in.steps) + len(in.queries)
	r.attempted += int64(due)
	r.failed += int64(due - acked - distances - nearests)

	// The throughput divides the SND evaluations answered by the time
	// the server held the requests (send to response), each request
	// kind charged its count times its trimmed mean: the offered load
	// is fixed, so only the server's own speed moves it, and a stray
	// stall does not. A median would jump between the fast repeated
	// distance queries and the slow new ones, which come in about
	// equal shares.
	if busyMS := serviceMS(stepSvc) + serviceMS(distSvc) + serviceMS(nearSvc); busyMS > 0 {
		r.e2e["pairs_per_s"] = float64(pairs) / (busyMS / 1000)
	}
	l := r.layers
	l["monitor.step_p50_ms"] = median(stepLat)
	l["monitor.step_p90_ms"] = quantile(stepLat, 0.9)
	l["monitor.step_slo_ratio"] = float64(withinLimit) / float64(len(in.steps))
	l["monitor.distance_p50_ms"] = median(distLat)
	l["monitor.distance_p90_ms"] = quantile(distLat, 0.9)
	l["monitor.nearest_p50_ms"] = median(nearLat)
	l["loadgen.late_ms_p90"] = quantile(late, 0.9)
	l["loadgen.sent"] = float64(len(steps) + len(queries))
	for _, c := range []struct {
		what string
		n    int
	}{{"step", len(stepLat)}, {"distance", len(distLat)}} {
		if !tailOK(c.n, 0.9) {
			fmt.Fprintf(os.Stderr, "perfbench: only %d %s samples; a p90 needs %d beyond it\n", c.n, c.what, minTail)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d steps (%d acked), %d distance, %d nearest over %v\n",
		len(in.steps), acked, distances, nearests, window.Round(time.Millisecond))

	// Layers: engine counters over the load window, server-side times
	// from the /metrics histograms, WAL counters.
	est := eng1.Sub(eng0)
	engineLayers(r, est, window, engineWorkers(), 0)
	runtimeLayers(r, rt1.sub(rt0))
	if len(nDeltas) > 0 {
		l["core.n_delta_mean"] = mean(nDeltas)
		l["core.n_delta_max"] = quantile(nDeltas, 1)
	}
	stepN, stepSum := m1.count("step")-m0.count("step"), m1.sum("step")-m0.sum("step")
	queryN, querySum := m1.count("query")-m0.count("query"), m1.sum("query")-m0.sum("query")
	if stepN > 0 {
		l["serve.step_server_ms"] = stepSum / stepN * 1000
	}
	if r.tr != nil && queryN > float64(nearests) {
		distSum := querySum - nearestServer.Seconds()
		l["serve.distance_server_ms"] = distSum / (queryN - float64(nearests)) * 1000
		if n := len(stepSvc) + len(distSvc); n > 0 {
			clientSum := mean(stepSvc)*float64(len(stepSvc)) + mean(distSvc)*float64(len(distSvc))
			l["serve.http_overhead_ms"] = (clientSum - (stepSum+distSum)*1000) / float64(n)
		}
	}
	l["serve.admission_rejected"] = m1.total("snd_admission_rejected_total") - m0.total("snd_admission_rejected_total")
	l["serve.retries"] = float64(feeder.retries + dash.retries)
	if distances > 0 {
		l["serve.repeat_query_share"] = float64(repeats) / float64(distances)
	}
	walRecords := m1.total("snd_wal_records_total") - m0.total("snd_wal_records_total")
	l["wal.records"] = m1.total("snd_wal_records_total")
	l["wal.checkpoints"] = m1.total("snd_wal_checkpoints_total")
	if acked > 0 {
		l["wal.records_per_step"] = walRecords / float64(acked)
	}
	l["wal.dir_mb"] = dirMB(ls.dir)

	// Correctness: sampled responses against direct library calls,
	// then recovery of a crash-consistent copy of the live log.
	shadow := snd.NewNetwork(in.g, in.opts, snd.EngineConfig{Workers: engineWorkers()})
	defer shadow.Close()
	traj := trajectories(in, steps)
	verifyMonitor(r, p, in, shadow, traj, steps, queries)
	stepChecksum := 0.0
	for _, s := range steps {
		for _, res := range s.resp.Results {
			if res.SND != nil {
				stepChecksum += *res.SND
			}
		}
	}
	if acked == len(in.steps) {
		r.checkChecksum(stepChecksum, p.Checksum, "monitor steps")
	}
	recoverMonitor(r, p, ls, scratch, traj)
	ls.stop()

	// Bypass assertions: exact traffic only, and every claimed layer
	// actually loaded.
	r.check(est.TermsApproxCoarse+est.TermsApproxGap+est.TermsApproxSinkhorn == 0, "monitor loaded the approximation tier")
	r.check(walRecords >= float64(acked), "WAL logged %v records for %d acked steps", walRecords, acked)
	r.check(stepN >= float64(acked) && acked > 0, "step route served %v requests for %d acked steps", stepN, acked)
	r.check(est.TermsWarmExact+est.TermsWarmSolved > 0, "monitor reused no warm basis")
	r.check(est.PairBounds > 0 || nearests == 0, "nearest queries computed no pair bounds")
}

// serviceMS charges a request kind its count times its service time
// trimmed of the fastest and slowest tenth, in milliseconds.
func serviceMS(svc []float64) float64 { return float64(len(svc)) * trimmedMean(svc, 0.1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// trajectories replays the acked steps of each hot state: traj[i][v-1]
// is named state i at version v.
func trajectories(in monitorInputs, steps []stepOut) [][]snd.State {
	traj := make([][]snd.State, len(in.initial))
	for i, st := range in.initial {
		traj[i] = []snd.State{st}
	}
	for _, s := range steps {
		if s.Err != nil {
			continue
		}
		sp := in.steps[s.plan]
		for _, d := range sp.deltas {
			cur := traj[sp.state][len(traj[sp.state])-1].Clone()
			for _, ch := range d {
				cur[ch.User] = snd.Opinion(ch.Opinion)
			}
			traj[sp.state] = append(traj[sp.state], cur)
		}
	}
	return traj
}

// verifyMonitor recomputes a sample of step and query responses on a
// direct handle over the same snapshots; served values must match bit
// for bit.
func verifyMonitor(r *run, p monitorParams, in monitorInputs, shadow *snd.Network, traj [][]snd.State, steps []stepOut, queries []queryOut) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(trafficSeed(r.seed) + 1))
	var checked []snd.Result
	at := func(state int, version uint64) (snd.State, bool) {
		if version < 1 || int(version) > len(traj[state]) {
			return nil, false
		}
		return traj[state][version-1], true
	}
	if len(steps) > 0 {
		for k := 0; k < p.VerifySteps; k++ {
			s := steps[rng.Intn(len(steps))]
			if s.Err != nil {
				continue
			}
			if !r.checkOK(len(s.resp.Results) == len(in.steps[s.plan].deltas), "step %d: %d results for %d deltas", s.plan, len(s.resp.Results), len(in.steps[s.plan].deltas)) {
				continue
			}
			got := s.resp.Results[rng.Intn(len(s.resp.Results))]
			if !r.checkOK(got.SND != nil, "step %d: result without SND", s.plan) {
				continue
			}
			h := in.steps[s.plan].state
			prev, ok1 := at(h, got.Version-1)
			next, ok2 := at(h, got.Version)
			if !r.checkOK(ok1 && ok2, "step %d: version %d not in the acked trajectory", s.plan, got.Version) {
				continue
			}
			want, err := shadow.Distance(ctx, prev, next)
			r.check(err == nil, "direct step distance: %v", err)
			checked = append(checked, want)
			r.check(math.Float64bits(*got.SND) == math.Float64bits(want.SND) && got.NDelta == want.NDelta && termsEqual(got.Terms, want.Terms[:]),
				"step %d: served SND %v, direct %v", s.plan, *got.SND, want.SND)
		}
	}
	var dist, near []queryOut
	for _, q := range queries {
		if q.Err != nil {
			continue
		}
		if in.queries[q.plan].nearest {
			near = append(near, q)
		} else {
			dist = append(dist, q)
		}
	}
	for k := 0; k < p.VerifyQueries && len(dist) > 0; k++ {
		q := dist[rng.Intn(len(dist))]
		qp := in.queries[q.plan]
		a, ok1 := at(qp.a, q.resp.Versions[stateName(qp.a)])
		b, ok2 := at(qp.b, q.resp.Versions[stateName(qp.b)])
		if !r.checkOK(ok1 && ok2 && len(q.resp.Results) == 1, "distance query %d: bad pinned versions %v", q.plan, q.resp.Versions) {
			continue
		}
		want, err := shadow.Distance(ctx, a, b)
		r.check(err == nil, "direct distance: %v", err)
		checked = append(checked, want)
		got := q.resp.Results[0]
		r.check(math.Float64bits(got.SND) == math.Float64bits(want.SND) && got.NDelta == want.NDelta && termsEqual(got.Terms[:], want.Terms[:]),
			"distance query %d: served SND %v, direct %v", q.plan, got.SND, want.SND)
	}
	if len(near) > 0 {
		q := near[rng.Intn(len(near))]
		qp := in.queries[q.plan]
		query := fromWire(qp.query)
		best := math.Inf(1)
		var dists = make(map[string]float64)
		for _, c := range qp.candidates {
			st, ok := at(c, q.resp.Versions[stateName(c)])
			if !r.checkOK(ok, "nearest query %d: bad pinned version for %s", q.plan, stateName(c)) {
				return
			}
			want, err := shadow.Distance(ctx, query, st)
			r.check(err == nil, "direct nearest distance: %v", err)
			checked = append(checked, want)
			dists[stateName(c)] = want.SND
			best = min(best, want.SND)
		}
		ok := len(q.resp.Neighbors) == 1
		if ok {
			nb := q.resp.Neighbors[0]
			d, known := dists[nb.State]
			ok = known && math.Float64bits(d) == math.Float64bits(nb.Distance) && d == best
		}
		r.check(ok, "nearest query %d: served %+v, direct distances %v", q.plan, q.resp.Neighbors, dists)
	}
	// The SSSP charge and the term engines are invariant to caches and
	// worker counts, so the verified sample stands in for the run.
	resultLayers(r, checked)
}

// checkOK is check returning ok, for guard clauses.
func (r *run) checkOK(ok bool, format string, args ...any) bool {
	r.check(ok, format, args...)
	return ok
}

func termsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// recoverMonitor copies the live (still open) data directory, as a
// crash would leave it, and boots fresh registries from the copies:
// recovery_s is the median AttachWAL time, and the recovered registry
// must hold every acked version bit for bit.
func recoverMonitor(r *run, p monitorParams, ls *liveServer, scratch string, traj [][]snd.State) {
	var times []float64
	var info serve.RecoveryInfo
	for rep := 0; rep < max(1, p.RecoveryReps); rep++ {
		dir := filepath.Join(scratch, fmt.Sprintf("crash-%d", rep))
		if err := copyDir(ls.dir, dir); err != nil {
			fatalf("monitor: copying data dir: %v", err)
		}
		reg := serve.NewRegistry(serve.Config{})
		sp := r.tr.start("Registry.AttachWAL", 0, 0)
		t0 := time.Now()
		got, err := reg.AttachWAL(dir, wal.Options{Policy: wal.SyncAlways}, p.CheckpointEvery)
		d := time.Since(t0)
		r.tr.end(sp)
		if !r.checkOK(err == nil, "recovery: %v", err) {
			return
		}
		times = append(times, d.Seconds())
		info = got
		if rep == 0 {
			verifyRecovered(r, reg, traj)
		}
		reg.CloseAll()
	}
	r.layers["monitor.recovery_s"] = median(times)
	r.layers["wal.replayed_records"] = float64(info.ReplayedRecords)

	// The log layer alone: open (scan, check, decode) another copy.
	dir := filepath.Join(scratch, "crash-log")
	if err := copyDir(ls.dir, dir); err != nil {
		fatalf("monitor: copying data dir: %v", err)
	}
	t0 := time.Now()
	lg, rec, err := wal.Open(dir, wal.Options{})
	r.layers["wal.replay_s"] = time.Since(t0).Seconds()
	if r.checkOK(err == nil, "wal.Open: %v", err) {
		r.check(len(rec.Records) == info.ReplayedRecords, "wal.Open found %d records, recovery replayed %d", len(rec.Records), info.ReplayedRecords)
		_ = lg.Close()
	}
}

// verifyRecovered reads every named state back from a recovered
// registry through the HTTP handler.
func verifyRecovered(r *run, reg *serve.Registry, traj [][]snd.State) {
	h := serve.NewServer(reg, 0)
	for i, tr := range traj {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/tenants/"+tenantName+"/states/"+stateName(i)+"?opinions=1", nil)
		h.ServeHTTP(rec, req)
		var info serve.StateInfo
		if !r.checkOK(rec.Code == http.StatusOK && decodeBody(rec.Body, &info) == nil, "recovered state %s: HTTP %d", stateName(i), rec.Code) {
			continue
		}
		want := tr[len(tr)-1]
		r.check(info.Version == uint64(len(tr)) && sameOpinions(info.Opinion, want),
			"recovered state %s at version %d, acked version %d", stateName(i), info.Version, len(tr))
	}
}

func sameOpinions(ops []int8, st snd.State) bool {
	if len(ops) != len(st) {
		return false
	}
	for i := range ops {
		if ops[i] != int8(st[i]) {
			return false
		}
	}
	return true
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirMB(dir string) float64 {
	total := int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return float64(total) / (1 << 20)
}
