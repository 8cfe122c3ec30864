package flow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// brute enumerates optimal transportation cost for tiny balanced
// problems with integer supplies/demands by dynamic recursion.
func brute(supply, demand []float64, cost func(i, j int) float64) float64 {
	s := append([]float64(nil), supply...)
	d := append([]float64(nil), demand...)
	best := math.Inf(1)
	var rec func(acc float64)
	rec = func(acc float64) {
		if acc >= best {
			return
		}
		i := -1
		for k, v := range s {
			if v > Eps {
				i = k
				break
			}
		}
		if i < 0 {
			if acc < best {
				best = acc
			}
			return
		}
		for j, v := range d {
			if v <= Eps {
				continue
			}
			amt := math.Min(s[i], d[j])
			// Branch on each possible "ship one unit" granularity:
			// move 1 unit at a time keeps the search exact for
			// integer instances.
			if amt > 1 {
				amt = 1
			}
			s[i] -= amt
			d[j] -= amt
			rec(acc + amt*cost(i, j))
			s[i] += amt
			d[j] += amt
		}
	}
	rec(0)
	return best
}

func randProblem(rng *rand.Rand, s, t, maxMass, maxCost int) (Dense, [][]float64) {
	supply := make([]float64, s)
	demand := make([]float64, t)
	total := 0
	for i := range supply {
		v := rng.Intn(maxMass + 1)
		supply[i] = float64(v)
		total += v
	}
	// Distribute the same total over demands.
	left := total
	for j := 0; j < t-1; j++ {
		v := 0
		if left > 0 {
			v = rng.Intn(left + 1)
		}
		demand[j] = float64(v)
		left -= v
	}
	demand[t-1] = float64(left)
	c := make([][]float64, s)
	for i := range c {
		c[i] = make([]float64, t)
		for j := range c[i] {
			c[i][j] = float64(rng.Intn(maxCost) + 1)
		}
	}
	return Dense{Supply: supply, Demand: demand, Cost: CostMatrix(c)}, c
}

func TestSSPDenseTiny(t *testing.T) {
	// 2x2 with an obvious diagonal optimum.
	p := Dense{
		Supply: []float64{1, 1},
		Demand: []float64{1, 1},
		Cost:   CostMatrix([][]float64{{0, 5}, {5, 0}}),
	}
	plan, err := SSPDense(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 0 {
		t.Errorf("cost = %v, want 0", plan.Cost)
	}
	if err := ValidatePlan(p, plan); err != nil {
		t.Error(err)
	}
}

func TestSSPDenseCross(t *testing.T) {
	// Forced cross shipment.
	p := Dense{
		Supply: []float64{2, 0},
		Demand: []float64{1, 1},
		Cost:   CostMatrix([][]float64{{1, 3}, {7, 9}}),
	}
	plan, err := SSPDense(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 4 {
		t.Errorf("cost = %v, want 4", plan.Cost)
	}
}

func TestSSPDenseRerouting(t *testing.T) {
	// Classic instance where a later augmentation must push flow back
	// along a reverse arc to stay optimal.
	p := Dense{
		Supply: []float64{1, 1},
		Demand: []float64{1, 1},
		Cost:   CostMatrix([][]float64{{1, 2}, {1, 100}}),
	}
	plan, err := SSPDense(p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: supplier 0 -> consumer 1 (2), supplier 1 -> consumer 0 (1).
	if plan.Cost != 3 {
		t.Errorf("cost = %v, want 3", plan.Cost)
	}
	if err := ValidatePlan(p, plan); err != nil {
		t.Error(err)
	}
}

func TestSolversAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		s := rng.Intn(5) + 1
		tt := rng.Intn(5) + 1
		p, _ := randProblem(rng, s, tt, 3, 9)
		want := brute(p.Supply, p.Demand, p.Cost)
		ssp, err := SSPDense(p)
		if err != nil {
			t.Fatalf("trial %d: SSP: %v", trial, err)
		}
		simplex, err := SimplexDense(p)
		if err != nil {
			t.Fatalf("trial %d: simplex: %v", trial, err)
		}
		if math.Abs(ssp.Cost-want) > 1e-6 {
			t.Fatalf("trial %d: SSP cost %v, brute %v (supply=%v demand=%v)", trial, ssp.Cost, want, p.Supply, p.Demand)
		}
		if math.Abs(simplex.Cost-want) > 1e-6 {
			t.Fatalf("trial %d: simplex cost %v, brute %v (supply=%v demand=%v)", trial, simplex.Cost, want, p.Supply, p.Demand)
		}
		if err := ValidatePlan(p, ssp); err != nil {
			t.Fatalf("trial %d: SSP plan invalid: %v", trial, err)
		}
		if err := ValidatePlan(p, simplex); err != nil {
			t.Fatalf("trial %d: simplex plan invalid: %v", trial, err)
		}
	}
}

func TestSolversAgreeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p, _ := randProblem(rng, 20+rng.Intn(20), 20+rng.Intn(20), 10, 50)
		ssp, err := SSPDense(p)
		if err != nil {
			t.Fatal(err)
		}
		simplex, err := SimplexDense(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ssp.Cost-simplex.Cost) > 1e-6*math.Max(1, ssp.Cost) {
			t.Fatalf("trial %d: SSP %v != simplex %v", trial, ssp.Cost, simplex.Cost)
		}
	}
}

func TestUnbalancedRejected(t *testing.T) {
	p := Dense{Supply: []float64{2}, Demand: []float64{1}, Cost: func(i, j int) float64 { return 1 }}
	if _, err := SSPDense(p); err == nil {
		t.Error("SSPDense accepted unbalanced problem")
	}
	if _, err := SimplexDense(p); err == nil {
		t.Error("SimplexDense accepted unbalanced problem")
	}
}

func TestBadMassRejected(t *testing.T) {
	for _, p := range []Dense{
		{Supply: []float64{-1}, Demand: []float64{-1}, Cost: func(i, j int) float64 { return 1 }},
		{Supply: []float64{math.NaN()}, Demand: []float64{1}, Cost: func(i, j int) float64 { return 1 }},
		{Supply: []float64{math.Inf(1)}, Demand: []float64{1}, Cost: func(i, j int) float64 { return 1 }},
	} {
		if _, err := SSPDense(p); err == nil {
			t.Errorf("accepted bad masses %v", p.Supply)
		}
	}
}

func TestBalance(t *testing.T) {
	cost := func(i, j int) float64 { return float64(i + j + 1) }
	p, slackS, slackC := Balance([]float64{3, 2}, []float64{1}, cost)
	if !slackC || slackS {
		t.Fatalf("expected slack consumer, got supplier=%v consumer=%v", slackS, slackC)
	}
	if len(p.Demand) != 2 || p.Demand[1] != 4 {
		t.Errorf("slack demand = %v", p.Demand)
	}
	if p.Cost(0, 1) != 0 || p.Cost(1, 1) != 0 {
		t.Error("slack arcs should cost 0")
	}
	if p.Cost(0, 0) != 1 {
		t.Error("original costs must be preserved")
	}

	p2, slackS2, _ := Balance([]float64{1}, []float64{3}, cost)
	if !slackS2 {
		t.Fatal("expected slack supplier")
	}
	if len(p2.Supply) != 2 || p2.Supply[1] != 2 {
		t.Errorf("slack supply = %v", p2.Supply)
	}

	p3, a, b := Balance([]float64{2}, []float64{2}, cost)
	if a || b {
		t.Error("balanced input should add no slack")
	}
	if len(p3.Supply) != 1 || len(p3.Demand) != 1 {
		t.Error("balanced input should be unchanged")
	}
}

func buildBipartiteNetwork(p Dense, scale int64) *Network {
	s, t := len(p.Supply), len(p.Demand)
	nw := NewNetwork(s+t, s*t)
	for i := 0; i < s; i++ {
		nw.SetExcess(i, int64(math.Round(p.Supply[i]*float64(scale))))
	}
	for j := 0; j < t; j++ {
		nw.SetExcess(s+j, -int64(math.Round(p.Demand[j]*float64(scale))))
	}
	for i := 0; i < s; i++ {
		for j := 0; j < t; j++ {
			// A transportation arc never carries more than
			// min(supply, demand); bounding its capacity keeps
			// cost-scaling from parking huge zero-cost circulations
			// on "uncapacitated" arcs.
			cap := int64(math.Round(math.Min(p.Supply[i], p.Demand[j]) * float64(scale)))
			nw.AddArc(i, s+j, cap, int64(p.Cost(i, j)))
		}
	}
	return nw
}

func TestNetworkSolversMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		p, _ := randProblem(rng, 3+rng.Intn(8), 3+rng.Intn(8), 5, 20)
		ref, err := SSPDense(p)
		if err != nil {
			t.Fatal(err)
		}
		nw := buildBipartiteNetwork(p, 1)
		got, err := nw.SolveSSP(context.Background())
		if err != nil {
			t.Fatalf("trial %d: network SSP: %v", trial, err)
		}
		if float64(got) != ref.Cost {
			t.Fatalf("trial %d: network SSP cost %d, dense %v", trial, got, ref.Cost)
		}
		nw2 := buildBipartiteNetwork(p, 1)
		got2, err := nw2.SolveCostScaling(context.Background())
		if err != nil {
			t.Fatalf("trial %d: cost scaling: %v", trial, err)
		}
		if got2 != got {
			t.Fatalf("trial %d: cost scaling %d != SSP %d", trial, got2, got)
		}
	}
}

func TestNetworkResetFlow(t *testing.T) {
	p := Dense{
		Supply: []float64{2, 1},
		Demand: []float64{1, 2},
		Cost:   CostMatrix([][]float64{{1, 4}, {2, 6}}),
	}
	nw := buildBipartiteNetwork(p, 1)
	c1, err := nw.SolveSSP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nw.ResetFlow()
	c2, err := nw.SolveCostScaling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("after ResetFlow: SSP %d != cost scaling %d", c1, c2)
	}
}

func TestNetworkInfeasible(t *testing.T) {
	nw := NewNetwork(2, 1)
	nw.SetExcess(0, 1)
	nw.SetExcess(1, -1)
	// No arcs at all: stranded excess.
	if _, err := nw.SolveSSP(context.Background()); err == nil {
		t.Error("SolveSSP accepted disconnected instance")
	}
	nw2 := NewNetwork(2, 1)
	nw2.SetExcess(0, 1)
	if _, err := nw2.SolveSSP(context.Background()); err == nil {
		t.Error("SolveSSP accepted unbalanced instance")
	}
	if _, err := nw2.SolveCostScaling(context.Background()); err == nil {
		t.Error("SolveCostScaling accepted unbalanced instance")
	}
}

func TestNetworkCapacityRespected(t *testing.T) {
	// Two paths: cheap arc with cap 1, expensive with cap 10.
	nw := NewNetwork(2, 2)
	nw.SetExcess(0, 3)
	nw.SetExcess(1, -3)
	cheap := nw.AddArc(0, 1, 1, 1)
	exp := nw.AddArc(0, 1, 10, 5)
	cost, err := nw.SolveSSP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cost != 1*1+2*5 {
		t.Errorf("cost = %d, want 11", cost)
	}
	if nw.Flow(cheap) != 1 || nw.Flow(exp) != 2 {
		t.Errorf("flows = %d, %d; want 1, 2", nw.Flow(cheap), nw.Flow(exp))
	}
}

func TestNetworkThroughIntermediate(t *testing.T) {
	// Supplier 0 -> hub 1 -> consumers 2,3: flow must split at the hub.
	nw := NewNetwork(4, 3)
	nw.SetExcess(0, 5)
	nw.SetExcess(2, -2)
	nw.SetExcess(3, -3)
	nw.AddArc(0, 1, 100, 2)
	nw.AddArc(1, 2, 100, 3)
	nw.AddArc(1, 3, 100, 4)
	want := int64(5*2 + 2*3 + 3*4)
	for name, solve := range map[string]func() (int64, error){
		// Map iteration order is random, so each solver must reset the
		// network itself — running after the other is part of the test.
		"ssp":  func() (int64, error) { nw.ResetFlow(); return nw.SolveSSP(context.Background()) },
		"cost": func() (int64, error) { nw.ResetFlow(); return nw.SolveCostScaling(context.Background()) },
	} {
		got, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: cost %d, want %d", name, got, want)
		}
	}
}

// TestQuickNetworkSolversAgree cross-checks SSP and cost-scaling on
// random sparse instances with intermediate nodes.
func TestQuickNetworkSolversAgree(t *testing.T) {
	prop := func(seed int64) bool {
		n := 6 + rand.New(rand.NewSource(seed)).Intn(10)
		build := func() *Network {
			// Fresh RNG per build so both solvers see the same network.
			rng := rand.New(rand.NewSource(seed + 1))
			nw := NewNetwork(n, 3*n)
			// Random connected-ish arc set: a cycle plus chords.
			for v := 0; v < n; v++ {
				nw.AddArc(v, (v+1)%n, int64(rng.Intn(5)+3), int64(rng.Intn(9)+1))
			}
			for k := 0; k < 2*n; k++ {
				u, w := rng.Intn(n), rng.Intn(n)
				if u != w {
					nw.AddArc(u, w, int64(rng.Intn(5)+1), int64(rng.Intn(9)+1))
				}
			}
			total := int64(rng.Intn(4) + 1)
			nw.SetExcess(0, total)
			nw.SetExcess(n-1, -total)
			return nw
		}
		a, errA := build().SolveSSP(context.Background())
		b, errB := build().SolveCostScaling(context.Background())
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true // both infeasible: fine
		}
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSSPDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p, _ := randProblem(rng, 60, 60, 5, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSPDense(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p, _ := randProblem(rng, 60, 60, 5, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimplexDense(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkCostScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p, _ := randProblem(rng, 60, 60, 5, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := buildBipartiteNetwork(p, 1)
		if _, err := nw.SolveCostScaling(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNetworkSolversCancelled checks both solvers observe an already-
// cancelled context before doing any routing work, and that a nil
// context means "no cancellation".
func TestNetworkSolversCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	build := func() *Network {
		nw := NewNetwork(3, 2)
		nw.SetExcess(0, 2)
		nw.SetExcess(2, -2)
		nw.AddArc(0, 1, 5, 1)
		nw.AddArc(1, 2, 5, 1)
		return nw
	}
	if _, err := build().SolveSSP(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveSSP cancelled: err = %v, want context.Canceled", err)
	}
	if _, err := build().SolveCostScaling(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveCostScaling cancelled: err = %v, want context.Canceled", err)
	}
	if _, err := build().SolveSSP(nil); err != nil {
		t.Errorf("SolveSSP nil ctx: %v", err)
	}
	if _, err := build().SolveCostScaling(nil); err != nil {
		t.Errorf("SolveCostScaling nil ctx: %v", err)
	}
}
