package emd

import (
	"math"
	"math/rand"
	"testing"

	"snd/internal/flow"
)

// lineMetric returns the metric D(i,j) = |x_i - x_j| for random integer
// points on a line — a cheap, exactly-metric ground distance.
func lineMetric(n int, rng *rand.Rand) DistFn {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(50))
	}
	return func(i, j int) float64 { return math.Abs(x[i] - x[j]) }
}

func randHist(n int, rng *rand.Rand, maxMass int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(rng.Intn(maxMass + 1))
	}
	return h
}

func TestEMDIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := lineMetric(6, rng)
	p := []float64{1, 0, 2, 0, 3, 0}
	got, err := EMD(p, p, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("EMD(P,P) = %v, want 0", got)
	}
}

func TestEMDSimpleShift(t *testing.T) {
	// Two bins at distance 5; all mass moves across.
	d := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 5
	}
	p := []float64{2, 0}
	q := []float64{0, 2}
	got, err := EMD(p, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("EMD = %v, want 5 (per-unit cost)", got)
	}
}

func TestEMDPartialMatching(t *testing.T) {
	// Heavier Q: only min(sumP, sumQ)=1 unit must move; EMD ignores the
	// mismatch entirely (the flaw EMD* fixes).
	d := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	p := []float64{1, 0}
	q := []float64{1, 7}
	got, err := EMD(p, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("EMD = %v, want 0 (overlap is free, mismatch ignored)", got)
	}
}

func TestEMDEmpty(t *testing.T) {
	d := func(i, j int) float64 { return 1 }
	if got, err := EMD([]float64{0, 0}, []float64{1, 2}, d); err != nil || got != 0 {
		t.Errorf("EMD(empty, Q) = %v, %v", got, err)
	}
}

func TestEMDErrors(t *testing.T) {
	d := func(i, j int) float64 { return 1 }
	if _, err := EMD([]float64{1}, []float64{1, 2}, d); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := EMD([]float64{-1}, []float64{1}, d); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := EMD([]float64{math.NaN()}, []float64{1}, d); err == nil {
		t.Error("NaN mass accepted")
	}
}

// TestTheorem2AlphaEqualsHat verifies the paper's Theorem 2:
// EMD-alpha == EMD-hat for metric D and alpha >= 0.5.
func TestTheorem2AlphaEqualsHat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 4)
		q := randHist(n, rng, 4)
		for _, alpha := range []float64{0.5, 0.8, 1.5} {
			hat, err := Hat(p, q, d, alpha)
			if err != nil {
				t.Fatal(err)
			}
			al, err := Alpha(p, q, d, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(hat-al) > 1e-6*math.Max(1, hat) {
				t.Fatalf("trial %d alpha %v: Hat %v != Alpha %v (P=%v Q=%v)",
					trial, alpha, hat, al, p, q)
			}
		}
	}
}

// TestCorollary1 verifies that padding two equal-mass histograms with
// equal-capacity global banks at distance omega >= max(D)/2 leaves the
// optimal transportation cost unchanged.
func TestCorollary1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 3)
		q := make([]float64, n)
		// Permute p's masses so totals match exactly.
		perm := rng.Perm(n)
		for i, j := range perm {
			q[j] = p[i]
		}
		base, err := EMD(p, q, d)
		if err != nil {
			t.Fatal(err)
		}
		baseCost := base * sum(p)
		omega := MaxDist(n, d)/2 + float64(rng.Intn(3))
		for _, k := range []float64{0, 1, 7.5} {
			pExt := append(append([]float64(nil), p...), k)
			qExt := append(append([]float64(nil), q...), k)
			dExt := func(i, j int) float64 {
				bi, bj := i == n, j == n
				switch {
				case bi && bj:
					return 0
				case bi || bj:
					return omega
				default:
					return d(i, j)
				}
			}
			if sum(pExt) <= flow.Eps {
				continue
			}
			plan, err := flow.SSPDense(flow.Dense{Supply: pExt, Demand: qExt, Cost: dExt})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(plan.Cost-baseCost) > 1e-6*math.Max(1, baseCost) {
				t.Fatalf("trial %d k=%v: padded cost %v != base %v", trial, k, plan.Cost, baseCost)
			}
		}
	}
}

func TestStarIdenticalIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := lineMetric(5, rng)
	p := []float64{1, 2, 0, 0, 1}
	got, err := Star(p, p, d, StarConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Star(P,P) = %v, want 0", got)
	}
}

func TestStarMassMismatchPenalized(t *testing.T) {
	// Unlike EMD, EMD* must charge for the extra mass.
	d := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	p := []float64{1, 0}
	q := []float64{1, 7}
	star, err := Star(p, q, d, StarConfig{GammaFloor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if star <= 0 {
		t.Errorf("Star = %v, want > 0 for mass mismatch", star)
	}
	// Banks sit on the lighter histogram P, proportional to P's mass:
	// all 7 units depart the bank at bin 0 and travel gamma + D(0,1)
	// = 2 + 1 to the extra mass at bin 1.
	if want := 7.0 * 3; math.Abs(star-want) > 1e-9 {
		t.Errorf("Star = %v, want %v", star, want)
	}
}

// TestStarReducedMatchesUnreduced: the Lemma 1/2 reduction path must be
// exact (semimetric ground distance). It also cross-checks the two dense
// solvers: Star solves the reduced problem by successive shortest paths,
// StarUnreduced the full one by the transportation simplex.
func TestStarReducedMatchesUnreduced(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 4)
		q := randHist(n, rng, 4)
		cfg := StarConfig{GammaFloor: 1 + float64(rng.Intn(3))}
		a, err := Star(p, q, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := StarUnreduced(p, q, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-6*math.Max(1, b) {
			t.Fatalf("trial %d: reduced %v != unreduced %v (P=%v Q=%v)", trial, a, b, p, q)
		}
	}
}

// TestLemma2AtFlowLevel verifies Lemma 2 in its actual form: for a
// *balanced* transportation problem over a semimetric ground distance,
// cancelling min(P_i, Q_i) at any bin leaves the optimal cost
// unchanged. (EMD* applies this to the extended histograms; applying it
// to the originals would change the bank capacities, which is why the
// reduction happens after extension.)
func TestLemma2AtFlowLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 3)
		q := make([]float64, n)
		perm := rng.Perm(n)
		for i, j := range perm {
			q[j] = p[i] // balanced by construction
		}
		cost := func(i, j int) float64 { return d(i, j) }
		base, err := flow.SSPDense(flow.Dense{Supply: p, Demand: q, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		rp, rq, idx := Reduce(p, q)
		if len(rp) == 0 {
			continue
		}
		red, err := flow.SSPDense(flow.Dense{
			Supply: rp,
			Demand: rq,
			Cost:   func(i, j int) float64 { return d(idx[i], idx[j]) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(red.Cost-base.Cost) > 1e-6*math.Max(1, base.Cost) {
			t.Fatalf("trial %d: reduced cost %v != base %v (P=%v Q=%v)", trial, red.Cost, base.Cost, p, q)
		}
	}
}

// TestTheorem3Metricity checks EMD*'s metric axioms.
//
// Identity and symmetry hold for every configuration. The triangle
// inequality is guaranteed in the single-global-cluster configuration
// with gamma >= max(D)/2, where EMD* coincides with EMD-alpha — which
// Theorem 2 proves equal to the provably-metric EMD-hat. With banks
// finer than the metric's diameter the paper's Theorem 3 proof has a
// gap (bank capacities depend on the pair under comparison, so Thm. 1
// does not transfer across pairs) and violations do occur; see
// TestTriangleNeedsGlobalGamma and docs/ARCHITECTURE.md ("Design
// notes").
func TestTheorem3Metricity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		d := lineMetric(n, rng)
		cfg := StarConfig{
			Clusters:   make([]int, n), // one global cluster
			GammaFloor: math.Max(1, MaxDist(n, d)/2),
		}
		p := randHist(n, rng, 3)
		q := randHist(n, rng, 3)
		r := randHist(n, rng, 3)
		dpq, err := Star(p, q, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dqp, err := Star(q, p, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dpq-dqp) > 1e-6*math.Max(1, dpq) {
			t.Fatalf("trial %d: symmetry broken: %v vs %v", trial, dpq, dqp)
		}
		dpr, err := Star(p, r, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dqr, err := Star(q, r, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dpr > dpq+dqr+1e-6 {
			t.Fatalf("trial %d: triangle broken: d(p,r)=%v > d(p,q)+d(q,r)=%v+%v", trial, dpr, dpq, dqr)
		}
		dpp, err := Star(p, p, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dpp != 0 {
			t.Fatalf("trial %d: identity broken: %v", trial, dpp)
		}
		// Identity and symmetry must also hold for the default
		// singleton-bank configuration.
		fine := StarConfig{}
		fpq, err := Star(p, q, d, fine)
		if err != nil {
			t.Fatal(err)
		}
		fqp, err := Star(q, p, d, fine)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fpq-fqp) > 1e-6*math.Max(1, fpq) {
			t.Fatalf("trial %d: singleton symmetry broken: %v vs %v", trial, fpq, fqp)
		}
	}
}

// TestStarGlobalBankEqualsAlpha: with a single global cluster, one
// bank, and gamma = alpha * max(D), EMD* collapses to EMD-alpha (the
// extra common bank capacity EMD-alpha carries is free by Corollary 1).
func TestStarGlobalBankEqualsAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 4)
		q := randHist(n, rng, 4)
		alpha := 0.5 + rng.Float64()
		gamma := alpha * MaxDist(n, d)
		if gamma == 0 {
			continue
		}
		star, err := Star(p, q, d, StarConfig{Clusters: make([]int, n), GammaFloor: gamma})
		if err != nil {
			t.Fatal(err)
		}
		al, err := Alpha(p, q, d, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(star-al) > 1e-6*math.Max(1, al) {
			t.Fatalf("trial %d: Star(global bank) %v != Alpha %v (P=%v Q=%v)", trial, star, al, p, q)
		}
	}
}

// TestFig5Scenario reproduces the paper's Fig. 5 discriminative example:
// mass propagated into a neighboring cluster through bridges must be
// closer (under EMD*) than the same mass teleported deep into the
// cluster, while EMD-alpha/EMD-hat cannot distinguish them and original
// EMD sees no difference at all.
func TestFig5Scenario(t *testing.T) {
	// Bins 0..3 form region C1, bins 4..7 region C2; a line metric puts
	// C2's bins progressively farther from the bridge at bin 3/4.
	// Singleton (per-bin) banks — the default and the granularity at
	// which EMD* resolves *where inside a region* new mass appeared;
	// coarser cluster banks only resolve cross-cluster placement.
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	d := func(i, j int) float64 { return math.Abs(x[i] - x[j]) }
	g1 := []float64{1, 1, 1, 1, 0, 0, 0, 0}
	g2 := []float64{1, 1, 1, 1, 2, 0, 0, 0} // propagated: next to the bridge
	g3 := []float64{1, 1, 1, 1, 0, 0, 0, 2} // teleported: deep inside C2
	cfg := StarConfig{GammaFloor: 1.5}

	d12, err := Star(g1, g2, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d13, err := Star(g1, g3, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(d12 < d13) {
		t.Errorf("EMD*: propagated %v should be closer than teleported %v", d12, d13)
	}

	a12, err := Alpha(g1, g2, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a13, err := Alpha(g1, g3, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a12-a13) > 1e-9 {
		t.Errorf("EMD-alpha should not distinguish: %v vs %v", a12, a13)
	}

	e12, err := EMD(g1, g2, d)
	if err != nil {
		t.Fatal(err)
	}
	e13, err := EMD(g1, g3, d)
	if err != nil {
		t.Fatal(err)
	}
	if e12 != 0 || e13 != 0 {
		t.Errorf("EMD should see both as identical to G1: %v, %v", e12, e13)
	}
}

func TestStarMultiBankAndClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	d := lineMetric(8, rng)
	clusters := []int{0, 0, 0, 0, 1, 1, 1, 1}
	p := randHist(8, rng, 3)
	q := randHist(8, rng, 3)
	for _, banks := range []int{1, 2, 3} {
		got, err := Star(p, q, d, StarConfig{Clusters: clusters, Banks: banks, GammaStep: 0.5})
		if err != nil {
			t.Fatalf("banks=%d: %v", banks, err)
		}
		if got < 0 {
			t.Errorf("banks=%d: negative distance %v", banks, got)
		}
	}
	// Bad cluster label count must be rejected.
	if _, err := Star(p, q, d, StarConfig{Clusters: []int{0, 1}}); err == nil {
		t.Error("mismatched cluster labels accepted")
	}
}

func TestExtendBalancesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		d := lineMetric(n, rng)
		p := randHist(n, rng, 5)
		q := randHist(n, rng, 5)
		ext, err := Extend(p, q, d, StarConfig{Banks: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum(ext.P)-sum(ext.Q)) > 1e-9 {
			t.Fatalf("trial %d: extension unbalanced: %v vs %v", trial, sum(ext.P), sum(ext.Q))
		}
		want := math.Max(sum(p), sum(q))
		if math.Abs(sum(ext.P)-want) > 1e-9 {
			t.Fatalf("trial %d: extended total %v, want max(sumP,sumQ)=%v", trial, sum(ext.P), want)
		}
	}
}

func TestExtendEmptyLighter(t *testing.T) {
	d := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	p := []float64{0, 0, 0}
	q := []float64{1, 0, 2}
	ext, err := Extend(p, q, d, StarConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum(ext.P)-sum(ext.Q)) > 1e-9 {
		t.Fatal("empty-lighter extension unbalanced")
	}
	// Shares fall back to the heavier histogram's distribution: banks
	// at bins 0 and 2 carry mass 1 and 2.
	if ext.P[3] != 1 || ext.P[5] != 2 {
		t.Errorf("bank capacities = %v, want proportional to Q", ext.P[3:])
	}
	star, err := Star(p, q, d, StarConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Each unit travels its local bank distance gamma = 1.
	if star != 3 {
		t.Errorf("Star(empty, Q) = %v, want 3", star)
	}
}

func TestReduce(t *testing.T) {
	p := []float64{3, 1, 0, 2}
	q := []float64{1, 1, 5, 2}
	rp, rq, idx := Reduce(p, q)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("idx = %v, want [0 2]", idx)
	}
	if rp[0] != 2 || rq[0] != 0 || rp[1] != 0 || rq[1] != 5 {
		t.Errorf("reduced = %v / %v", rp, rq)
	}
	// Fully identical histograms reduce to nothing.
	rp, rq, idx = Reduce(q, q)
	if len(rp) != 0 || len(rq) != 0 || len(idx) != 0 {
		t.Errorf("identical histograms should vanish: %v %v %v", rp, rq, idx)
	}
}

func TestMaxDist(t *testing.T) {
	d := func(i, j int) float64 { return float64(i * j) }
	if got := MaxDist(4, d); got != 9 {
		t.Errorf("MaxDist = %v, want 9", got)
	}
}

// TestTriangleNeedsGlobalGamma documents the Theorem 3 subtlety
// recorded in docs/ARCHITECTURE.md ("Design notes"): with per-bin
// banks and a gamma far below max(D)/2, the triangle inequality fails
// through an empty middle histogram — draining P into its cheap local
// banks and refilling R from R's local banks undercuts the long direct
// P->R move. Raising gamma to max(D)/2 repairs it.
func TestTriangleNeedsGlobalGamma(t *testing.T) {
	d := func(i, j int) float64 { return 40 * math.Abs(float64(i-j)) }
	p := []float64{3, 0}
	r := []float64{0, 3}
	q := []float64{0, 0}
	small := StarConfig{GammaFloor: 1}
	dpq, err := Star(p, q, d, small)
	if err != nil {
		t.Fatal(err)
	}
	dqr, err := Star(q, r, d, small)
	if err != nil {
		t.Fatal(err)
	}
	dpr, err := Star(p, r, d, small)
	if err != nil {
		t.Fatal(err)
	}
	if dpr <= dpq+dqr {
		t.Fatalf("expected a triangle violation with tiny gamma: d(p,r)=%v <= %v+%v", dpr, dpq, dqr)
	}
	big := StarConfig{GammaFloor: MaxDist(2, d) / 2}
	dpq, _ = Star(p, q, d, big)
	dqr, _ = Star(q, r, d, big)
	dpr, _ = Star(p, r, d, big)
	if dpr > dpq+dqr+1e-9 {
		t.Fatalf("triangle still broken with global gamma: %v > %v + %v", dpr, dpq, dqr)
	}
}
