package emd

import (
	"math/rand"
	"testing"
)

// randBoundsCase builds a random histogram pair and a random
// non-negative ground distance with zero diagonal (possibly
// asymmetric, as SND's directed ground distances are).
func randBoundsCase(rng *rand.Rand) (p, q []float64, d DistFn) {
	n := 2 + rng.Intn(6)
	p = make([]float64, n)
	q = make([]float64, n)
	for i := range p {
		if rng.Intn(3) > 0 {
			p[i] = float64(rng.Intn(4))
		}
		if rng.Intn(3) > 0 {
			q[i] = float64(rng.Intn(4))
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = float64(rng.Intn(9) + 1)
			}
		}
	}
	return p, q, func(i, j int) float64 { return m[i][j] }
}

// TestBoundsAdmissible pins every Bounds lower bound at or below the
// exact value of its variant across 200 random instances.
func TestBoundsAdmissible(t *testing.T) {
	const slack = 1e-9
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, q, d := randBoundsCase(rng)
		b, err := NewBounds(p, q, d)
		if err != nil {
			t.Fatalf("seed %d: NewBounds: %v", seed, err)
		}

		exactEMD, err := EMD(p, q, d)
		if err != nil {
			t.Fatalf("seed %d: EMD: %v", seed, err)
		}
		if lb := b.EMD(); lb > exactEMD+slack {
			t.Fatalf("seed %d: EMD bound %v > exact %v", seed, lb, exactEMD)
		}

		alpha := 0.5 + rng.Float64()*1.5
		exactHat, err := Hat(p, q, d, alpha)
		if err != nil {
			t.Fatalf("seed %d: Hat: %v", seed, err)
		}
		if lb := b.Hat(alpha); lb > exactHat+slack {
			t.Fatalf("seed %d: Hat bound %v > exact %v (alpha %v)", seed, lb, exactHat, alpha)
		}
		exactAlpha, err := Alpha(p, q, d, alpha)
		if err != nil {
			t.Fatalf("seed %d: Alpha: %v", seed, err)
		}
		if lb := b.Alpha(alpha); lb > exactAlpha+slack {
			t.Fatalf("seed %d: Alpha bound %v > exact %v (alpha %v)", seed, lb, exactAlpha, alpha)
		}

		cfgs := []StarConfig{
			{},
			{GammaFloor: 1 + float64(rng.Intn(3))},
			{Banks: 1 + rng.Intn(2), GammaStep: rng.Float64()},
		}
		if rng.Intn(2) == 0 {
			clusters := make([]int, len(p))
			k := 1 + rng.Intn(len(p))
			for i := range clusters {
				clusters[i] = rng.Intn(k)
			}
			// Compact labels so cluster.Count sees a dense range.
			seen := map[int]int{}
			for i, c := range clusters {
				if _, ok := seen[c]; !ok {
					seen[c] = len(seen)
				}
				clusters[i] = seen[c]
			}
			cfgs = append(cfgs, StarConfig{Clusters: clusters})
		}
		for ci, cfg := range cfgs {
			exactStar, err := Star(p, q, d, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: Star: %v", seed, ci, err)
			}
			if lb := b.Star(cfg); lb > exactStar+slack {
				t.Fatalf("seed %d cfg %d: Star bound %v > exact %v", seed, ci, lb, exactStar)
			}
		}
	}
}

// TestBoundsZeroOnEqual pins the bounds at zero for identical
// histograms (the distance is zero; an inadmissible bound would
// immediately break screening).
func TestBoundsZeroOnEqual(t *testing.T) {
	p := []float64{1, 0, 2, 3}
	d := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 5
	}
	b, err := NewBounds(p, p, d)
	if err != nil {
		t.Fatal(err)
	}
	if lb := b.EMD(); lb != 0 {
		t.Errorf("EMD bound on equal histograms = %v, want 0", lb)
	}
	if lb := b.Star(StarConfig{}); lb != 0 {
		t.Errorf("Star bound on equal histograms = %v, want 0", lb)
	}
}
