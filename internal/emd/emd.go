// Package emd implements the Earth Mover's Distance family used by SND:
//
//   - EMD: the original partial-matching EMD of Rubner et al. (eq. 1),
//     a ratio of optimal transportation cost to total shipped mass.
//   - Hat: EMD-hat of Pele-Werman, adding an additive mass-mismatch
//     penalty alpha * max(D) * |sum P - sum Q|.
//   - Alpha: EMD-alpha of Ljosa et al., extending both histograms with
//     a single global "bank" bin (provably equal to Hat — Theorem 2 —
//     which the tests verify).
//   - Star: the paper's EMD*, extending both histograms with multiple
//     local bank bins attached to clusters of bins so the mass mismatch
//     is distributed spatially (eq. 4).
//
// Ground distances are supplied as a function over bin pairs; package
// core feeds shortest-path distances from the opinion-dependent network
// (eq. 2). Histograms are non-negative float vectors; in SND they are
// 0/1 opinion-indicator histograms, but the implementations accept
// arbitrary masses.
package emd

import (
	"fmt"
	"math"

	"snd/internal/flow"
)

// DistFn returns the ground distance between bins i and j.
type DistFn func(i, j int) float64

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func checkHistograms(p, q []float64) error {
	if len(p) != len(q) {
		return fmt.Errorf("emd: histogram lengths differ: %d vs %d", len(p), len(q))
	}
	for i, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("emd: bad mass P[%d] = %v", i, v)
		}
	}
	for j, v := range q {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("emd: bad mass Q[%d] = %v", j, v)
		}
	}
	return nil
}

// EMD computes the original Earth Mover's Distance of eq. 1: the
// minimum transportation cost of matching min(sum P, sum Q) mass,
// divided by that mass. It returns 0 when either histogram is empty
// (no mass moves).
func EMD(p, q []float64, d DistFn) (float64, error) {
	if err := checkHistograms(p, q); err != nil {
		return 0, err
	}
	sp, sq := sum(p), sum(q)
	if sp <= flow.Eps || sq <= flow.Eps {
		return 0, nil
	}
	prob, _, _ := flow.Balance(p, q, d)
	plan, err := flow.SSPDense(prob)
	if err != nil {
		return 0, err
	}
	return plan.Cost / math.Min(sp, sq), nil
}

// MaxDist returns max over non-empty-bin pairs of d (the normalization
// constant of Hat and Alpha); over all pairs when n is small.
func MaxDist(n int, d DistFn) float64 {
	max := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := d(i, j); v > max {
				max = v
			}
		}
	}
	return max
}

// Hat computes EMD-hat (Pele-Werman):
//
//	Hat = EMD * min(sum P, sum Q) + alpha * max(D) * |sum P - sum Q|.
//
// alpha >= 0.5 with a metric D makes Hat a metric.
func Hat(p, q []float64, d DistFn, alpha float64) (float64, error) {
	raw, err := EMD(p, q, d)
	if err != nil {
		return 0, err
	}
	sp, sq := sum(p), sum(q)
	return raw*math.Min(sp, sq) + alpha*MaxDist(len(p), d)*math.Abs(sp-sq), nil
}

// Alpha computes EMD-alpha (Ljosa et al.): both histograms gain one
// global bank bin sized so totals match; the bank sits at distance
// alpha * max(D) from every bin and 0 from the other bank. The result
// is scaled by (sum P + sum Q), the total mass of the extended
// histograms (equivalently: the raw optimal cost of the extended
// balanced problem).
func Alpha(p, q []float64, d DistFn, alpha float64) (float64, error) {
	if err := checkHistograms(p, q); err != nil {
		return 0, err
	}
	n := len(p)
	sp, sq := sum(p), sum(q)
	gamma := alpha * MaxDist(n, d)
	pExt := append(append([]float64(nil), p...), sq)
	qExt := append(append([]float64(nil), q...), sp)
	dExt := func(i, j int) float64 {
		iBank, jBank := i == n, j == n
		switch {
		case iBank && jBank:
			return 0
		case iBank || jBank:
			return gamma
		default:
			return d(i, j)
		}
	}
	plan, err := flow.SSPDense(flow.Dense{Supply: pExt, Demand: qExt, Cost: dExt})
	if err != nil {
		return 0, err
	}
	return plan.Cost, nil
}
