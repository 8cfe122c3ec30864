package emd

import (
	"fmt"
	"math"

	"snd/internal/cluster"
	"snd/internal/flow"
)

// StarConfig parameterizes EMD* (eq. 4).
type StarConfig struct {
	// Clusters maps each bin to a dense cluster label in [0, Nc). Nil
	// selects singleton clusters (one bank per bin) — the setting of
	// the Theorem 4 proof and the default of the scalable SND path.
	Clusters []int
	// Banks is the number of bank bins attached to each cluster
	// (Nb >= 1; default 1).
	Banks int
	// GammaFloor is the minimum bank ground distance, used when a
	// cluster's half-diameter is smaller (e.g. singleton clusters,
	// whose intra-cluster diameter is 0). Defaults to 1.
	GammaFloor float64
	// GammaStep separates the Nb banks of one cluster: bank j sits at
	// gamma(c) + j*GammaStep. Defaults to 0 (all banks equidistant).
	GammaStep float64
}

func (c StarConfig) withDefaults(n int) StarConfig {
	if c.Clusters == nil {
		c.Clusters = cluster.Singleton(n)
	}
	if c.Banks < 1 {
		c.Banks = 1
	}
	if c.GammaFloor <= 0 {
		c.GammaFloor = 1
	}
	return c
}

// StarExtension is the extended problem EMD* solves: histograms padded
// with cluster banks and the extended ground distance of eq. 4. It is
// exposed so tests and the SND core can inspect the construction.
type StarExtension struct {
	P, Q []float64 // extended histograms, length N = n + Nc*Banks
	N    int       // extended size
	n    int       // original size
	Nc   int
	Nb   int

	clusters []int
	gamma    [][]float64 // [cluster][bank]
	interMin [][]float64 // [cluster][cluster] min ground distance
	d        DistFn
}

// Dist returns the extended ground distance between extended bins i, j.
func (e *StarExtension) Dist(i, j int) float64 {
	iBank, jBank := i >= e.n, j >= e.n
	switch {
	case !iBank && !jBank:
		return e.d(i, j)
	case iBank && jBank:
		if i == j {
			return 0
		}
		ci, bi := e.bankOf(i)
		cj, bj := e.bankOf(j)
		return e.gamma[ci][bi] + e.gamma[cj][bj] + e.interMin[ci][cj]
	case iBank:
		c, b := e.bankOf(i)
		return e.gamma[c][b] + e.interMin[c][e.clusters[j]]
	default:
		c, b := e.bankOf(j)
		return e.gamma[c][b] + e.interMin[e.clusters[i]][c]
	}
}

func (e *StarExtension) bankOf(i int) (clusterID, bankID int) {
	k := i - e.n
	return k / e.Nb, k % e.Nb
}

// BankCapacities distributes the mass mismatch delta over the lighter
// histogram's cluster banks proportionally to that histogram's cluster
// masses (falling back to the heavier histogram's cluster masses, then
// to uniform, when the lighter histogram is empty). The heavier
// histogram's banks stay empty. The paper's printed formula does not
// balance the totals as written; this implements the two requirements
// its prose states (docs/ARCHITECTURE.md, "Design notes").
func bankCapacities(p, q []float64, clusters []int, nc, nb int) (pBanks, qBanks []float64) {
	sp, sq := sum(p), sum(q)
	pBanks = make([]float64, nc*nb)
	qBanks = make([]float64, nc*nb)
	delta := math.Abs(sp - sq)
	if delta <= flow.Eps {
		return pBanks, qBanks
	}
	lighter, banks := p, pBanks
	lighterSum := sp
	if sq < sp {
		lighter, banks = q, qBanks
		lighterSum = sq
	}
	shares := make([]float64, nc)
	switch {
	case lighterSum > flow.Eps:
		for i, v := range lighter {
			shares[clusters[i]] += v / lighterSum
		}
	default:
		heavier, heavierSum := q, sq
		if sq < sp {
			heavier, heavierSum = p, sp
		}
		if heavierSum > flow.Eps {
			for i, v := range heavier {
				shares[clusters[i]] += v / heavierSum
			}
		} else {
			for c := range shares {
				shares[c] = 1 / float64(nc)
			}
		}
	}
	for c := 0; c < nc; c++ {
		per := delta * shares[c] / float64(nb)
		for b := 0; b < nb; b++ {
			banks[c*nb+b] = per
		}
	}
	return pBanks, qBanks
}

// Extend builds the EMD* extension for histograms p, q over ground
// distance d under cfg. Infinite ground distances (disconnected bins)
// are admitted; the solver simply never routes across them unless
// forced, in which case the distance value saturates.
func Extend(p, q []float64, d DistFn, cfg StarConfig) (*StarExtension, error) {
	if err := checkHistograms(p, q); err != nil {
		return nil, err
	}
	n := len(p)
	cfg = cfg.withDefaults(n)
	if len(cfg.Clusters) != n {
		return nil, fmt.Errorf("emd: %d cluster labels for %d bins", len(cfg.Clusters), n)
	}
	nc := cluster.Count(cfg.Clusters)
	nb := cfg.Banks
	ext := &StarExtension{
		n:        n,
		N:        n + nc*nb,
		Nc:       nc,
		Nb:       nb,
		clusters: cfg.Clusters,
		d:        d,
	}
	// Cluster half-diameters and inter-cluster min distances.
	members := cluster.Members(cfg.Clusters)
	ext.gamma = make([][]float64, nc)
	ext.interMin = make([][]float64, nc)
	for c := range ext.interMin {
		ext.interMin[c] = make([]float64, nc)
		for c2 := range ext.interMin[c] {
			if c != c2 {
				ext.interMin[c][c2] = math.Inf(1)
			}
		}
	}
	for c := 0; c < nc; c++ {
		halfDiam := 0.0
		for _, u := range members[c] {
			for c2 := 0; c2 < nc; c2++ {
				for _, v := range members[c2] {
					dist := d(u, v)
					if c2 == c {
						if dist > 2*halfDiam {
							halfDiam = dist / 2
						}
					} else if dist < ext.interMin[c][c2] {
						ext.interMin[c][c2] = dist
					}
				}
			}
		}
		g := math.Max(halfDiam, cfg.GammaFloor)
		ext.gamma[c] = make([]float64, nb)
		for b := 0; b < nb; b++ {
			ext.gamma[c][b] = g + float64(b)*cfg.GammaStep
		}
	}
	// Symmetrize inter-cluster distances for the bank blocks: the
	// eq. 4 construction uses d_ij = min over cross pairs, which for a
	// directed ground distance need not be symmetric; the bank-to-bank
	// block of eq. 4 applies d as given.
	pBanks, qBanks := bankCapacities(p, q, cfg.Clusters, nc, nb)
	ext.P = append(append(make([]float64, 0, ext.N), p...), pBanks...)
	ext.Q = append(append(make([]float64, 0, ext.N), q...), qBanks...)
	return ext, nil
}

// Star computes EMD* (eq. 4): the raw optimal cost of the extended,
// mass-balanced transportation problem (the max(sum P, sum Q) factor in
// eq. 4 cancels EMD's normalization by total flow).
func Star(p, q []float64, d DistFn, cfg StarConfig) (float64, error) {
	ext, err := Extend(p, q, d, cfg)
	if err != nil {
		return 0, err
	}
	// Lemma 2 + Lemma 1: cancel shared mass per bin, drop empty bins.
	rp, rq, idx := Reduce(ext.P, ext.Q)
	if len(rp) == 0 && len(rq) == 0 {
		return 0, nil
	}
	prob := flow.Dense{
		Supply: rp,
		Demand: rq,
		Cost:   func(i, j int) float64 { return ext.Dist(idx[i], idx[j]) },
	}
	plan, err := flow.SSPDense(prob)
	if err != nil {
		return 0, err
	}
	return plan.Cost, nil
}

// StarUnreduced computes EMD* without the Lemma 1/2 reduction, solved
// by the transportation simplex. It sits behind core.Direct, the
// paper's Fig. 11 baseline, which sndbench times and the core tests
// compare the engine against; it is also a cross-check oracle for the
// reduction path, which Star solves by successive shortest paths.
func StarUnreduced(p, q []float64, d DistFn, cfg StarConfig) (float64, error) {
	ext, err := Extend(p, q, d, cfg)
	if err != nil {
		return 0, err
	}
	if sum(ext.P) <= flow.Eps {
		return 0, nil
	}
	plan, err := flow.SimplexDense(flow.Dense{Supply: ext.P, Demand: ext.Q, Cost: ext.Dist})
	if err != nil {
		return 0, err
	}
	return plan.Cost, nil
}

// Reduce applies Lemma 2 (subtract min(P_i, Q_i) from both bins — valid
// whenever the ground distance is a semimetric) followed by Lemma 1
// (drop bins empty on both sides). It returns the reduced histograms
// and the mapping from reduced index to original bin index. The two
// returned histograms share the index mapping: rp[k] and rq[k] both
// refer to original bin idx[k].
func Reduce(p, q []float64) (rp, rq []float64, idx []int) {
	for i := range p {
		m := math.Min(p[i], q[i])
		pi, qi := p[i]-m, q[i]-m
		if pi <= flow.Eps && qi <= flow.Eps {
			continue
		}
		rp = append(rp, pi)
		rq = append(rq, qi)
		idx = append(idx, i)
	}
	return rp, rq, idx
}
