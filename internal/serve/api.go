// Package serve is the multi-tenant SND monitoring service: a
// long-running HTTP+JSON front door over many snd.Network handles at
// once. It owns a tenant registry (one graph + engine + named tracked
// states per tenant; the registry holds each state, and the handle
// holds none), routes streaming StateDelta ingestion onto the
// incremental Network.StepFrom path, answers snapshot-isolated batch
// queries (a query pins the state versions it opened with), applies
// admission control (bounded in-flight semaphores per tenant and
// global, per-request deadlines), and exports per-tenant engine
// statistics plus request metrics in Prometheus text format at
// /metrics.
//
// # Routes
//
//	GET    /healthz                         liveness (process is up)
//	GET    /readyz                          readiness (replay done, not degraded)
//	GET    /metrics
//	GET    /v1/tenants                      list tenants
//	POST   /v1/tenants                      create a tenant
//	GET    /v1/tenants/{t}                  tenant detail
//	DELETE /v1/tenants/{t}                  delete (drains in-flight)
//	GET    /v1/tenants/{t}/stats            engine stats (?window=1)
//	GET    /v1/tenants/{t}/states           list tracked states
//	PUT    /v1/tenants/{t}/states/{s}       create/replace a state
//	GET    /v1/tenants/{t}/states/{s}       state detail (?opinions=1)
//	DELETE /v1/tenants/{t}/states/{s}       drop a state
//	POST   /v1/tenants/{t}/states/{s}:step  batched delta ingestion
//	POST   /v1/tenants/{t}/query            snapshot-isolated queries
//
// All bodies are JSON. Errors carry an ErrorResponse body whose
// Sentinel field names the snd error the failure wrapped, and the
// HTTP status is derived from it (see errors.go).
//
// With a WAL attached (Registry.AttachWAL, wired to sndserve's
// -data-dir flag) every acked mutation is logged before its
// in-memory commit and the registry recovers bit-identical state on
// restart; a log write failure flips the registry into sticky
// degraded read-only mode, where mutations answer 503 with the
// "Degraded" sentinel and queries keep serving (see durability.go).
// /v1 routes answer 503 "NotReady" until boot-time replay finishes.
package serve

// CreateTenantRequest is the body of POST /v1/tenants. Exactly one
// graph source must be set. The engine sizing fields mirror
// snd.EngineConfig; zero values select its defaults.
type CreateTenantRequest struct {
	// Name identifies the tenant in every subsequent route.
	Name string `json:"name"`
	// Graph supplies the social graph.
	Graph GraphSpec `json:"graph"`
	// ClustersK > 0 selects coarse bank bins via BFS clustering into
	// at most K clusters (recommended for weakly-connected digraphs).
	ClustersK int `json:"clusters_k,omitempty"`
	// Workers sizes the engine's worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// GroundCacheBytes budgets the ground-distance provider.
	GroundCacheBytes int64 `json:"ground_cache_bytes,omitempty"`
	// WarmCacheBytes budgets warm-start basis retention.
	WarmCacheBytes int64 `json:"warm_cache_bytes,omitempty"`
}

// GraphSpec names one graph source: a synthetic scale-free generator
// or an inline edge list in the plain text format ("n m" header, one
// "u v" line per directed edge).
type GraphSpec struct {
	ScaleFree *ScaleFreeSpec `json:"scale_free,omitempty"`
	Edges     string         `json:"edges,omitempty"`
}

// ScaleFreeSpec mirrors snd.ScaleFreeConfig.
type ScaleFreeSpec struct {
	N           int     `json:"n"`
	OutDeg      int     `json:"out_deg"`
	Exponent    float64 `json:"exponent"`
	Reciprocity float64 `json:"reciprocity"`
	Seed        int64   `json:"seed"`
}

// TenantInfo describes one tenant in list/detail responses.
type TenantInfo struct {
	Name   string `json:"name"`
	Users  int    `json:"users"`
	Edges  int    `json:"edges"`
	States int    `json:"states"`
}

// TenantList is the body of GET /v1/tenants.
type TenantList struct {
	Tenants []TenantInfo `json:"tenants"`
}

// StateInfo describes one tracked state. Opinions is populated only
// when requested (GET ...?opinions=1).
type StateInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Active  int    `json:"active"`
	Opinion []int8 `json:"opinions,omitempty"`
}

// StateList is the body of GET /v1/tenants/{t}/states.
type StateList struct {
	States []StateInfo `json:"states"`
}

// PutStateRequest is the body of PUT /v1/tenants/{t}/states/{s}: the
// full opinion vector (-1, 0, +1 per user), shipped once; every
// subsequent tick arrives as a delta via the :step route.
type PutStateRequest struct {
	Opinions []int8 `json:"opinions"`
}

// Change is one entry of a wire delta, mirroring snd.OpinionChange.
type Change struct {
	User    int  `json:"user"`
	Opinion int8 `json:"opinion"`
}

// Delta is one sparse state update.
type Delta []Change

// StepRequest is the body of POST /v1/tenants/{t}/states/{s}:step — a
// batch of deltas applied in order to the named tracked state. Each
// delta advances the state one version and (unless ApplyOnly) reports
// SND(previous, next), the monitoring distance the tick covered.
type StepRequest struct {
	Deltas []Delta `json:"deltas"`
	// ApplyOnly skips the distance evaluations: deltas advance the
	// state (and its provider lineage) without producing SND values.
	ApplyOnly bool `json:"apply_only,omitempty"`
}

// StepResult is one delta's outcome.
type StepResult struct {
	// Version is the state version after this delta.
	Version uint64 `json:"version"`
	// SND is the monitoring distance SND(previous, next); omitted in
	// apply-only mode.
	SND *float64 `json:"snd,omitempty"`
	// Terms are the four EMD* terms of eq. 3 (with SND).
	Terms []float64 `json:"terms,omitempty"`
	// NDelta is the number of users whose opinion differs between the
	// two states (with SND).
	NDelta int `json:"n_delta,omitempty"`
}

// StepResponse is the body of a successful :step call; Results aligns
// with the request's Deltas.
type StepResponse struct {
	Results []StepResult `json:"results"`
}

// QueryRequest is the body of POST /v1/tenants/{t}/query. Op selects
// the computation; States (and Pairs, Query, K where relevant) name
// its inputs. Named states resolve to immutable snapshots when the
// query opens — concurrent steps advance the live states but never
// the snapshots a running query computes on — and the response's
// Versions reports exactly which versions were pinned.
type QueryRequest struct {
	// Op is one of distance, pairs, series, matrix, nearest,
	// anomalies.
	Op string `json:"op"`
	// States names the tracked states the op consumes (distance: two;
	// series/matrix/anomalies: two or more; nearest: the candidates).
	States []string `json:"states,omitempty"`
	// Pairs names explicit state pairs for op == "pairs".
	Pairs [][2]string `json:"pairs,omitempty"`
	// Query is an inline opinion vector for op == "nearest" (the
	// search query need not be a tracked state).
	Query []int8 `json:"query,omitempty"`
	// K bounds the neighbor count for op == "nearest" (default 1).
	K int `json:"k,omitempty"`
	// Epsilon is a certified per-distance error budget for
	// distance/pairs/series/matrix ops: every reported value is within
	// Epsilon of the exact distance, and the response reports the
	// achieved envelope width (MaxGap). 0 (the default) is the exact
	// path, byte-identical to pre-epsilon responses; other ops reject
	// a non-zero Epsilon.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// PairResult is one distance evaluation of a distance/pairs query.
// LB/UB carry the certified envelope around SND and are present only
// when the query requested an Epsilon > 0, so exact responses are
// byte-identical to pre-epsilon ones.
type PairResult struct {
	SND    float64    `json:"snd"`
	Terms  [4]float64 `json:"terms"`
	NDelta int        `json:"n_delta"`
	LB     *float64   `json:"lb,omitempty"`
	UB     *float64   `json:"ub,omitempty"`
}

// NeighborResult is one nearest-neighbor hit.
type NeighborResult struct {
	State    string  `json:"state"`
	Distance float64 `json:"distance"`
}

// QueryResponse is the body of a successful query. Versions maps
// every named state the query touched to the version pinned at open;
// the op-specific fields mirror the library results bit-for-bit.
type QueryResponse struct {
	Op        string            `json:"op"`
	Versions  map[string]uint64 `json:"versions"`
	Results   []PairResult      `json:"results,omitempty"`
	Distances []float64         `json:"distances,omitempty"`
	Scores    []float64         `json:"scores,omitempty"`
	Matrix    [][]float64       `json:"matrix,omitempty"`
	Neighbors []NeighborResult  `json:"neighbors,omitempty"`
	// Epsilon echoes the request's certified error budget; MaxGap is
	// the largest achieved envelope width (UB - LB) over the computed
	// distances. Both are present only when the request set Epsilon.
	Epsilon float64  `json:"epsilon,omitempty"`
	MaxGap  *float64 `json:"max_gap,omitempty"`
}

// StatsResponse is the body of GET /v1/tenants/{t}/stats: the
// tenant engine's cumulative counters, or — with ?window=1 — the
// change since the previous windowed call (EngineStats.Sub), which is
// what a dashboard polling loop wants.
type StatsResponse struct {
	Window            bool    `json:"window"`
	SSSPSeconds       float64 `json:"sssp_seconds"`
	FlowSeconds       float64 `json:"flow_seconds"`
	BoundSeconds      float64 `json:"bound_seconds"`
	Terms             int64   `json:"terms"`
	TermsBoundDecided int64   `json:"terms_bound_decided"`
	TermsWarmExact    int64   `json:"terms_warm_exact"`
	TermsWarmSolved   int64   `json:"terms_warm_solved"`
	FlowSolves        int64   `json:"flow_solves"`
	Pairs             int64   `json:"pairs"`
	PairsDecided      int64   `json:"pairs_decided"`
	PairBounds        int64   `json:"pair_bounds"`
	GroundRefs        int64   `json:"ground_refs"`
	GroundBytes       int64   `json:"ground_bytes"`
	// The approximation-tier counters: terms decided by the relaxed
	// row-bound gate over rows filled by column (coarse) or by source
	// (gap), and by the entropic (Sinkhorn) stage. Exact traffic leaves
	// all three at zero.
	TermsApproxCoarse   int64 `json:"terms_approx_coarse"`
	TermsApproxGap      int64 `json:"terms_approx_gap"`
	TermsApproxSinkhorn int64 `json:"terms_approx_sinkhorn"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Sentinel names the snd sentinel the error wrapped (e.g.
	// "ErrStateSize"), or the context error ("DeadlineExceeded"),
	// or "" when no sentinel applies.
	Sentinel string `json:"sentinel,omitempty"`
}
