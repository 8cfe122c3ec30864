package main

import "snd"

// params is params.json: every workload parameter, and the checksums
// the default seed must reproduce.
type params struct {
	DefaultSeed int64 `json:"default_seed"`
	// ChecksumSeconds is the --seconds the checksums were recorded at
	// (the monitor's schedules depend on it).
	ChecksumSeconds int           `json:"checksum_seconds"`
	Analyze         seriesParams  `json:"analyze"`
	Approx          seriesParams  `json:"approx"`
	Monitor         monitorParams `json:"monitor"`
}

// graphParams sizes a scale-free graph (snd.ScaleFreeConfig).
type graphParams struct {
	Users       int     `json:"users"`
	OutDeg      int     `json:"out_deg"`
	Exponent    float64 `json:"exponent"`
	Reciprocity float64 `json:"reciprocity"`
	Clusters    int     `json:"clusters"`
}

func (g graphParams) config(seed int64) snd.ScaleFreeConfig {
	return snd.ScaleFreeConfig{N: g.Users, OutDeg: g.OutDeg, Exponent: g.Exponent, Reciprocity: g.Reciprocity, Seed: seed}
}

// evolutionParams shapes an opinion evolution: ticks of Tries sampled
// activations, every EventEvery-th tick instead an event flipping
// EventFlips random neutral users.
type evolutionParams struct {
	Adopters   int `json:"adopters"`
	Ticks      int `json:"ticks"`
	Tries      int `json:"tries"`
	EventEvery int `json:"event_every"`
	EventFlips int `json:"event_flips"`
}

// seriesParams drives the analyze and approx workloads: one series
// call per round on a fresh handle, rounds repeated until the measured
// time is up.
type seriesParams struct {
	Graph     graphParams     `json:"graph"`
	Evolution evolutionParams `json:"evolution"`
	// Epsilon is the certified error budget (0 = exact).
	Epsilon float64 `json:"epsilon"`
	// VerifyPairs is how many pairs of the first round are recomputed
	// exactly on a reference handle.
	VerifyPairs int     `json:"verify_pairs"`
	SetupReps   int     `json:"setup_reps"`
	Checksum    float64 `json:"checksum"`
}

// monitorParams drives the monitor workload.
type monitorParams struct {
	Graph     graphParams     `json:"graph"`
	Evolution evolutionParams `json:"evolution"`
	// Every state of the evolution is PUT as a named state; the first
	// HotStates of them receive the ingest traffic.
	HotStates int `json:"hot_states"`
	// Each step request, sent at StepRate per second, carries
	// StepBatch deltas; each delta flips StepFlips users of the hot
	// state's VolatilePool.
	StepBatch    int     `json:"step_batch"`
	StepFlips    int     `json:"step_flips"`
	VolatilePool int     `json:"volatile_pool"`
	StepRate     float64 `json:"step_rate"`
	// StepLimitMS is the step latency limit of the SLO ratio.
	StepLimitMS float64 `json:"step_limit_ms"`
	// QueryRate is the dashboard's request rate; every NearestEvery-th
	// request is a nearest query over NearestCandidates states, the
	// rest distance queries drawn from QueryPairs fixed pairs (so
	// queries on unchanged versions repeat), HotShare of them
	// touching a hot state.
	QueryRate         float64 `json:"query_rate"`
	QueryPairs        int     `json:"query_pairs"`
	HotShare          float64 `json:"hot_share"`
	NearestEvery      int     `json:"nearest_every"`
	NearestCandidates int     `json:"nearest_candidates"`
	NearestFlips      int     `json:"nearest_flips"`
	CheckpointEvery   int     `json:"checkpoint_every"`
	VerifySteps       int     `json:"verify_steps"`
	VerifyQueries     int     `json:"verify_queries"`
	RecoveryReps      int     `json:"recovery_reps"`
	SetupReps         int     `json:"setup_reps"`
	Checksum          float64 `json:"checksum"`
}
