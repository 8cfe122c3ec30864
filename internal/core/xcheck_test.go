package core

import (
	"math"
	"math/rand"
	"testing"

	"snd/internal/graph"
)

// TestEnginesAgreeMedium pins both routes to the dense oracle, term by
// term, on scale-free instances of a few hundred users.
func TestEnginesAgreeMedium(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 150 + rng.Intn(150)
		g := graph.ScaleFree(graph.ScaleFreeConfig{N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: int64(trial)})
		a := randState(n, 0.2+0.3*rng.Float64(), rng)
		b := perturb(a, 10+rng.Intn(40), rng)
		var vals [3]Result
		for i, s := range strategies {
			res, err := distanceVia(g, a, b, DefaultOptions(), s.term)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.name, err)
			}
			vals[i] = res
		}
		dense := vals[2]
		for i, s := range strategies[:2] {
			for k := 0; k < 4; k++ {
				if math.Abs(vals[i].Terms[k]-dense.Terms[k]) > 1e-9*math.Max(1, dense.Terms[k]) {
					t.Errorf("trial %d term %d: %s %v != dense %v", trial, k, s.name, vals[i].Terms[k], dense.Terms[k])
				}
			}
		}
	}
}
