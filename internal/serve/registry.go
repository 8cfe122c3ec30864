package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"snd"
)

// Config sizes the service.
type Config struct {
	// TenantInFlight bounds concurrently admitted requests per tenant
	// (<= 0 selects 32). Requests beyond it are shed with 429 rather
	// than queued: the engine already pipelines work internally, so a
	// deep server-side queue would only grow tail latency.
	TenantInFlight int
	// GlobalInFlight bounds admitted requests across all tenants
	// (<= 0 selects 256).
	GlobalInFlight int
	// MaxTenants bounds the registry (<= 0 selects 64); creates beyond
	// it fail with 409.
	MaxTenants int
}

func (c Config) withDefaults() Config {
	if c.TenantInFlight <= 0 {
		c.TenantInFlight = 32
	}
	if c.GlobalInFlight <= 0 {
		c.GlobalInFlight = 256
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	return c
}

// stateSnap is one immutable (state, version) pair.
type stateSnap struct {
	st      snd.State
	version uint64
}

// trackedState is one named, versioned state of a tenant. snap is an
// immutable snapshot replaced wholesale on every advance; readers that
// captured it keep computing on the pinned version (snapshot
// isolation), and the checkpoint capture loads it lock-free. mu
// serializes writers (puts and steps to the same state) across their
// whole append-then-commit sequence, so the version sequence per name
// is gapless and WAL record order matches commit order. dead (guarded
// by mu) marks a state removed from the map, so a writer that resolved
// the pointer before a concurrent drop retries instead of committing
// into an orphan.
type trackedState struct {
	mu   sync.Mutex
	dead bool
	snap atomic.Pointer[stateSnap]
}

// snapshot returns the state's current (immutable) snapshot.
func (ts *trackedState) snapshot() (snd.State, uint64) {
	s := ts.snap.Load()
	if s == nil {
		return nil, 0
	}
	return s.st, s.version
}

// Tenant is one registered graph: an snd.Network handle plus the named
// tracked states riding it. In-flight requests hold a drain reference;
// delete waits for them before closing the handle.
type Tenant struct {
	name  string
	reg   *Registry
	spec  CreateTenantRequest // the create request, kept for WAL snapshots
	net   *snd.Network
	users int
	edges int

	mu     sync.RWMutex // guards states
	states map[string]*trackedState

	inflight chan struct{} // per-tenant admission slots
	wg       sync.WaitGroup
	closed   atomic.Bool

	statsMu   sync.Mutex
	lastStats snd.EngineStats // baseline of the previous ?window=1 call
}

// statsResponse reports the tenant engine's counters: cumulative, or
// — when window is set — the change since the previous windowed call
// (EngineStats.Sub), resetting the window baseline.
func (t *Tenant) statsResponse(window bool) StatsResponse {
	cur := t.net.Engine().Stats()
	s := cur
	if window {
		t.statsMu.Lock()
		s = cur.Sub(t.lastStats)
		t.lastStats = cur
		t.statsMu.Unlock()
	}
	return StatsResponse{
		Window:            window,
		SSSPSeconds:       s.SSSPTime.Seconds(),
		FlowSeconds:       s.FlowTime.Seconds(),
		BoundSeconds:      s.BoundTime.Seconds(),
		Terms:             s.Terms,
		TermsBoundDecided: s.TermsBoundDecided,
		TermsWarmExact:    s.TermsWarmExact,
		TermsWarmSolved:   s.TermsWarmSolved,
		FlowSolves:        s.FlowSolves,
		Pairs:             s.Pairs,
		PairsDecided:      s.PairsDecided,
		PairBounds:        s.PairBounds,
		GroundRefs:        s.GroundRefs,
		GroundBytes:       s.GroundBytes,

		TermsApproxCoarse:   s.TermsApproxCoarse,
		TermsApproxGap:      s.TermsApproxGap,
		TermsApproxSinkhorn: s.TermsApproxSinkhorn,
	}
}

// Network exposes the tenant's handle (tests and the load generator's
// in-process mode use it; HTTP handlers go through the typed methods).
func (t *Tenant) Network() *snd.Network { return t.net }

// info snapshots the tenant's listing row.
func (t *Tenant) info() TenantInfo {
	t.mu.RLock()
	n := len(t.states)
	t.mu.RUnlock()
	return TenantInfo{Name: t.name, Users: t.users, Edges: t.edges, States: n}
}

// state resolves a named tracked state.
func (t *Tenant) state(name string) (*trackedState, error) {
	t.mu.RLock()
	ts := t.states[name]
	t.mu.RUnlock()
	if ts == nil {
		return nil, fmt.Errorf("tenant %q has no state %q: %w", t.name, name, ErrNotFound)
	}
	return ts, nil
}

// putState creates or replaces a named tracked state from a full
// opinion vector: validate, log, then commit.
func (t *Tenant) putState(name string, opinions []int8) (uint64, error) {
	st := make(snd.State, len(opinions))
	for i, o := range opinions {
		st[i] = snd.Opinion(o)
	}
	// Validate through the library path: ApplyFrom with an empty delta
	// checks the shape and opinion domain with the structured
	// sentinels without registering lineage.
	if _, err := t.net.ApplyFrom(st, nil); err != nil {
		return 0, err
	}
	for {
		t.mu.Lock()
		ts := t.states[name]
		created := ts == nil
		if created {
			ts = &trackedState{}
			t.states[name] = ts
		}
		t.mu.Unlock()
		ts.mu.Lock()
		if ts.dead {
			ts.mu.Unlock()
			continue // dropped between lookup and lock; retry on the fresh map
		}
		version := uint64(1)
		if s := ts.snap.Load(); s != nil {
			version = s.version + 1
		}
		ev := walEvent{Type: evStatePut, Tenant: t.name, State: name, Opinions: opinions}
		err := t.reg.mutate(ev, func() {
			ts.snap.Store(&stateSnap{st: st, version: version})
		})
		if err != nil && created && ts.snap.Load() == nil {
			// The append failed before the first commit: retire the
			// placeholder so the unacked state is invisible.
			ts.dead = true
			t.mu.Lock()
			if t.states[name] == ts {
				delete(t.states, name)
			}
			t.mu.Unlock()
		}
		ts.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return version, nil
	}
}

// dropState removes a named tracked state: log, then commit the
// removal. The state's writer lock serializes the drop against puts
// and steps, so WAL record order matches commit order.
func (t *Tenant) dropState(name string) error {
	t.mu.RLock()
	ts := t.states[name]
	t.mu.RUnlock()
	if ts == nil {
		return fmt.Errorf("tenant %q has no state %q: %w", t.name, name, ErrNotFound)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.dead {
		return fmt.Errorf("tenant %q has no state %q: %w", t.name, name, ErrNotFound)
	}
	ev := walEvent{Type: evStateDrop, Tenant: t.name, State: name}
	return t.reg.mutate(ev, func() {
		ts.dead = true
		t.mu.Lock()
		delete(t.states, name)
		t.mu.Unlock()
	})
}

// listStates snapshots the tenant's tracked states, sorted by name.
func (t *Tenant) listStates() []StateInfo {
	t.mu.RLock()
	names := make([]string, 0, len(t.states))
	for name := range t.states {
		names = append(names, name)
	}
	t.mu.RUnlock()
	sort.Strings(names)
	out := make([]StateInfo, 0, len(names))
	for _, name := range names {
		ts, err := t.state(name)
		if err != nil {
			continue // dropped since the listing snapshot
		}
		st, v := ts.snapshot()
		if st == nil {
			continue // placeholder of an in-flight put; not acked yet
		}
		out = append(out, StateInfo{Name: name, Version: v, Active: st.ActiveCount()})
	}
	return out
}

// step applies a batch of deltas to one named state in order,
// returning per-delta results. The state's writer lock is held across
// the whole batch, so a batch is atomic with respect to other steppers
// of the same state; queries are unaffected (they compute on the
// snapshots they pinned). Each delta rides Network.StepFrom (or
// ApplyFrom in apply-only mode), i.e. the incremental
// patch-and-repair path.
func (t *Tenant) step(ctx context.Context, stateName string, req StepRequest) (StepResponse, error) {
	ts, err := t.state(stateName)
	if err != nil {
		return StepResponse{}, err
	}
	resp := StepResponse{Results: make([]StepResult, 0, len(req.Deltas))}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.dead {
		return StepResponse{}, fmt.Errorf("tenant %q has no state %q: %w", t.name, stateName, ErrNotFound)
	}
	s := ts.snap.Load()
	if s == nil || s.st == nil {
		return StepResponse{}, fmt.Errorf("state %q has no opinions yet: %w", stateName, ErrNotFound)
	}
	// Compute the whole chain on locals first; the durable commit then
	// publishes the applied prefix in one store. The writer lock is held
	// across compute and commit, so a batch is atomic with respect to
	// other steppers of the same state; queries are unaffected (they
	// compute on the snapshots they pinned).
	cur, version := s.st, s.version
	applied := 0
	var stepErr error
	for i, d := range req.Deltas {
		delta := make(snd.StateDelta, len(d))
		for j, ch := range d {
			delta[j] = snd.OpinionChange{User: ch.User, Opinion: snd.Opinion(ch.Opinion)}
		}
		if req.ApplyOnly {
			next, err := t.net.ApplyFrom(cur, delta)
			if err != nil {
				stepErr = fmt.Errorf("delta %d: %w", i, err)
				break
			}
			cur, version, applied = next, version+1, i+1
			resp.Results = append(resp.Results, StepResult{Version: version})
			continue
		}
		next, res, err := t.net.StepFrom(ctx, cur, delta)
		if err != nil {
			// StepFrom returns the advanced state alongside
			// cancellation-stage errors; dropping it keeps the request
			// atomic — a failed batch leaves the state where the last
			// successful delta put it.
			stepErr = fmt.Errorf("delta %d: %w", i, err)
			break
		}
		cur, version, applied = next, version+1, i+1
		dist := res.SND
		resp.Results = append(resp.Results, StepResult{
			Version: version,
			SND:     &dist,
			Terms:   res.Terms[:],
			NDelta:  res.NDelta,
		})
	}
	if applied > 0 {
		// Log only the applied prefix, so replay never re-hits the
		// rejected delta and the recovered state lands exactly where
		// the acked response said it would.
		ev := walEvent{Type: evStep, Tenant: t.name, State: stateName, Deltas: req.Deltas[:applied]}
		final := &stateSnap{st: cur, version: version}
		if err := t.reg.mutate(ev, func() { ts.snap.Store(final) }); err != nil {
			return StepResponse{}, err
		}
	}
	if stepErr != nil {
		return StepResponse{}, stepErr
	}
	return resp, nil
}

// pin resolves named states to immutable snapshots plus the version
// map the response reports — the snapshot-isolation point of every
// query.
func (t *Tenant) pin(names []string) ([]snd.State, map[string]uint64, error) {
	states := make([]snd.State, len(names))
	versions := make(map[string]uint64, len(names))
	for i, name := range names {
		ts, err := t.state(name)
		if err != nil {
			return nil, nil, err
		}
		st, v := ts.snapshot()
		if st == nil {
			return nil, nil, fmt.Errorf("state %q has no opinions yet: %w", name, ErrNotFound)
		}
		states[i] = st
		versions[name] = v
	}
	return states, versions, nil
}

// Registry owns the tenants and the global admission limit.
type Registry struct {
	cfg     Config
	metrics *metrics

	mu      sync.RWMutex
	tenants map[string]*Tenant

	global chan struct{}

	// dur is the WAL attachment (nil until AttachWAL); see
	// durability.go for the commit protocol.
	dur atomic.Pointer[durability]
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	return &Registry{
		cfg:     cfg,
		metrics: newMetrics(),
		tenants: make(map[string]*Tenant),
		global:  make(chan struct{}, cfg.GlobalInFlight),
	}
}

// validName rejects empty names and names that would not round-trip
// through a URL path segment.
func validName(name string) error {
	if name == "" || len(name) > 128 || strings.ContainsAny(name, "/:? #%") {
		return badRequestf("invalid name %q", name)
	}
	return nil
}

// maxTenantUsers caps a tenant's graph, generated or uploaded: the
// graph decoder allocates for the node count a header declares, so an
// edge list is checked against it before it is built.
const maxTenantUsers = 1 << 22

// edgeListUsers returns the node count an edge list's header declares:
// the first field of its first line that is neither blank nor a '#'
// comment, as graph decoding reads it. ok is false when that field is
// not an integer; decoding then reports the malformed header.
func edgeListUsers(edges string) (n int, ok bool) {
	for rest := edges; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(strings.Fields(line)[0])
		return n, err == nil
	}
	return 0, false
}

// Create registers a tenant: builds the graph, the engine-backed
// Network handle, and an empty state set. With a WAL attached the
// create is logged before the tenant becomes visible.
func (rg *Registry) Create(req CreateTenantRequest) (*Tenant, error) {
	t, err := rg.create(req)
	if err == nil {
		rg.maybeCheckpoint()
	}
	return t, err
}

func (rg *Registry) create(req CreateTenantRequest) (*Tenant, error) {
	if err := validName(req.Name); err != nil {
		return nil, err
	}
	var g *snd.Graph
	switch {
	case req.Graph.ScaleFree != nil:
		sf := req.Graph.ScaleFree
		if sf.N <= 0 || sf.N > maxTenantUsers {
			return nil, badRequestf("scale_free.n = %d out of range", sf.N)
		}
		g = snd.ScaleFreeGraph(snd.ScaleFreeConfig{
			N: sf.N, OutDeg: sf.OutDeg, Exponent: sf.Exponent,
			Reciprocity: sf.Reciprocity, Seed: sf.Seed,
		})
	case req.Graph.Edges != "":
		if n, ok := edgeListUsers(req.Graph.Edges); ok && n > maxTenantUsers {
			return nil, badRequestf("edge list declares %d users, more than %d", n, maxTenantUsers)
		}
		var err error
		g, err = snd.ReadGraph(strings.NewReader(req.Graph.Edges))
		if err != nil {
			return nil, badRequestf("parsing edge list: %v", err)
		}
	default:
		return nil, badRequestf("graph spec names no source (scale_free or edges)")
	}
	opts := snd.DefaultOptions()
	if req.ClustersK > 0 {
		opts.Clusters = snd.BFSClusterLabels(g, req.ClustersK)
	}
	t := &Tenant{
		name:  req.Name,
		reg:   rg,
		spec:  req,
		users: g.N(),
		edges: g.M(),
		net: snd.NewNetwork(g, opts, snd.EngineConfig{
			Workers:          req.Workers,
			GroundCacheBytes: req.GroundCacheBytes,
			WarmCacheBytes:   req.WarmCacheBytes,
		}),
		states:   make(map[string]*trackedState),
		inflight: make(chan struct{}, rg.cfg.TenantInFlight),
	}
	d := rg.dur.Load()
	if d != nil {
		d.ckptMu.RLock()
		defer d.ckptMu.RUnlock()
		if d.degraded.Load() {
			t.net.Close()
			return nil, fmt.Errorf("write-ahead log failed, ingest is read-only: %w", ErrDegraded)
		}
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if _, ok := rg.tenants[req.Name]; ok {
		t.net.Close()
		return nil, fmt.Errorf("tenant %q: %w", req.Name, ErrExists)
	}
	if len(rg.tenants) >= rg.cfg.MaxTenants {
		t.net.Close()
		return nil, fmt.Errorf("registry full (%d tenants): %w", len(rg.tenants), ErrExists)
	}
	if d != nil {
		if err := d.append(walEvent{Type: evTenantCreate, Tenant: req.Name, Create: &req}); err != nil {
			t.net.Close()
			return nil, err
		}
	}
	rg.tenants[req.Name] = t
	return t, nil
}

// Get resolves a tenant by name.
func (rg *Registry) Get(name string) (*Tenant, error) {
	rg.mu.RLock()
	t := rg.tenants[name]
	rg.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("tenant %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// List snapshots the registry, sorted by tenant name.
func (rg *Registry) List() []TenantInfo {
	rg.mu.RLock()
	ts := make([]*Tenant, 0, len(rg.tenants))
	for _, t := range rg.tenants {
		ts = append(ts, t)
	}
	rg.mu.RUnlock()
	out := make([]TenantInfo, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete unregisters a tenant, drains its in-flight requests, and
// closes its Network. New requests stop finding the tenant the moment
// it leaves the map; requests already admitted run to completion
// before the handle closes, so none of them observe ErrEngineClosed
// through a Delete (only a direct Close storm can).
func (rg *Registry) Delete(name string) error {
	t, err := rg.detach(name)
	if err != nil {
		return err
	}
	t.closed.Store(true)
	t.wg.Wait()
	err = t.net.Close()
	rg.maybeCheckpoint()
	return err
}

// detach logs and removes the tenant from the map; the caller drains
// and closes it outside every lock.
func (rg *Registry) detach(name string) (*Tenant, error) {
	d := rg.dur.Load()
	if d != nil {
		d.ckptMu.RLock()
		defer d.ckptMu.RUnlock()
		if d.degraded.Load() {
			return nil, fmt.Errorf("write-ahead log failed, ingest is read-only: %w", ErrDegraded)
		}
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	t := rg.tenants[name]
	if t == nil {
		return nil, fmt.Errorf("tenant %q: %w", name, ErrNotFound)
	}
	if d != nil {
		if err := d.append(walEvent{Type: evTenantDelete, Tenant: name}); err != nil {
			return nil, err
		}
	}
	delete(rg.tenants, name)
	return t, nil
}

// CloseAll shuts the registry down. With a WAL attached it takes a
// final checkpoint and closes the log WITHOUT logging deletes — a
// graceful shutdown must not erase the durable state a restart will
// recover — then drains and closes every engine.
func (rg *Registry) CloseAll() {
	if d := rg.dur.Load(); d != nil {
		rg.checkpoint()
		_ = d.log.Close()
		// Late mutators hit the closed log, fail the append, and
		// surface ErrDegraded; nothing new is acked past the final
		// checkpoint.
	}
	rg.mu.Lock()
	ts := make([]*Tenant, 0, len(rg.tenants))
	for _, t := range rg.tenants {
		ts = append(ts, t)
	}
	rg.tenants = make(map[string]*Tenant)
	rg.mu.Unlock()
	for _, t := range ts {
		t.closed.Store(true)
		t.wg.Wait()
		_ = t.net.Close()
	}
}

// Acquire admits one request against tenant name: it resolves the
// tenant, takes a per-tenant and a global in-flight slot (shedding
// with ErrAdmission when either is full), and registers the request
// with the tenant's drain group. The returned release func must be
// called exactly once when the request finishes.
func (rg *Registry) Acquire(name string) (*Tenant, func(), error) {
	t, err := rg.Get(name)
	if err != nil {
		return nil, nil, err
	}
	if t.closed.Load() {
		return nil, nil, fmt.Errorf("tenant %q: %w", name, ErrNotFound)
	}
	select {
	case t.inflight <- struct{}{}:
	default:
		rg.metrics.shed("tenant")
		return nil, nil, fmt.Errorf("tenant %q at %d in-flight requests: %w",
			name, cap(t.inflight), ErrAdmission)
	}
	select {
	case rg.global <- struct{}{}:
	default:
		<-t.inflight
		rg.metrics.shed("global")
		return nil, nil, fmt.Errorf("server at %d in-flight requests: %w",
			cap(rg.global), ErrAdmission)
	}
	t.wg.Add(1)
	if t.closed.Load() {
		// A delete won the race between Get and Add; back out so its
		// drain does not wait on a request that will never run.
		t.wg.Done()
		<-rg.global
		<-t.inflight
		return nil, nil, fmt.Errorf("tenant %q: %w", name, ErrNotFound)
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			t.wg.Done()
			<-rg.global
			<-t.inflight
		})
	}
	return t, release, nil
}

// tenantMetrics is one tenant's scrape row.
type tenantMetrics struct {
	name   string
	states int
	stats  snd.EngineStats
}

// scrape snapshots every tenant's engine stats for /metrics.
func (rg *Registry) scrape() []tenantMetrics {
	rg.mu.RLock()
	ts := make([]*Tenant, 0, len(rg.tenants))
	for _, t := range rg.tenants {
		ts = append(ts, t)
	}
	rg.mu.RUnlock()
	out := make([]tenantMetrics, 0, len(ts))
	for _, t := range ts {
		ti := t.info()
		out = append(out, tenantMetrics{
			name:   t.name,
			states: ti.States,
			stats:  t.net.Engine().Stats(),
		})
	}
	return out
}
