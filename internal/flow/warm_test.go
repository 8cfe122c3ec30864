package flow

import (
	"fmt"
	"math/rand"
	"testing"
)

// bipInstance is one random complete-bipartite transportation instance
// of the shape the SND term pipeline builds: nS suppliers shipping
// `scale` units each, nC consumers receiving `scale` each, and slack
// sinks absorbing the difference, all with non-negative integer costs.
type bipInstance struct {
	nS, nC int
	scale  int64
	slack  []int64 // extra demand nodes balancing nS > nC (may be empty)
	cost   [][]int64
}

func randBipInstance(rng *rand.Rand, maxCost int64) bipInstance {
	nS := 1 + rng.Intn(8)
	nC := 1 + rng.Intn(nS) // consumers never outnumber suppliers
	inst := bipInstance{
		nS:    nS,
		nC:    nC,
		scale: 1 + int64(rng.Intn(5)),
	}
	// Slack sinks soak up the supply the consumers cannot absorb,
	// mirroring the term pipeline's bank bins.
	left := int64(nS-nC) * inst.scale
	for left > 0 {
		amt := 1 + rng.Int63n(left)
		inst.slack = append(inst.slack, amt)
		left -= amt
	}
	cols := nC + len(inst.slack)
	inst.cost = make([][]int64, nS)
	for i := range inst.cost {
		inst.cost[i] = make([]int64, cols)
		for j := range inst.cost[i] {
			inst.cost[i][j] = rng.Int63n(maxCost + 1)
		}
	}
	return inst
}

// build realizes the instance on nw (suppliers first, then consumers,
// then slack sinks; arcs in row-major order).
func (inst bipInstance) build(nw *Network) {
	cols := inst.nC + len(inst.slack)
	for i := 0; i < inst.nS; i++ {
		nw.SetExcess(i, inst.scale)
		for j := 0; j < cols; j++ {
			nw.AddArc(i, inst.nS+j, inst.scale, inst.cost[i][j])
		}
	}
	for j := 0; j < inst.nC; j++ {
		nw.SetExcess(inst.nS+j, -inst.scale)
	}
	for k, amt := range inst.slack {
		nw.SetExcess(inst.nS+inst.nC+k, -amt)
	}
}

func (inst bipInstance) nodes() int { return inst.nS + inst.nC + len(inst.slack) }
func (inst bipInstance) arcs() int  { return inst.nS * (inst.nC + len(inst.slack)) }

// perturb returns a structurally identical instance with a few costs
// changed (the warm path's instance delta).
func (inst bipInstance) perturb(rng *rand.Rand, maxCost int64, changes int) bipInstance {
	out := inst
	out.cost = make([][]int64, len(inst.cost))
	for i := range inst.cost {
		out.cost[i] = append([]int64(nil), inst.cost[i]...)
	}
	cols := inst.nC + len(inst.slack)
	for c := 0; c < changes; c++ {
		out.cost[rng.Intn(inst.nS)][rng.Intn(cols)] = rng.Int63n(maxCost + 1)
	}
	return out
}

func coldCost(t *testing.T, inst bipInstance) int64 {
	t.Helper()
	nw := NewNetwork(inst.nodes(), inst.arcs())
	inst.build(nw)
	got, err := nw.SolveSSP(nil)
	if err != nil {
		t.Fatalf("cold SolveSSP: %v", err)
	}
	return got
}

// warmOrCold is the caller's side of SolveSSPWarm: a basis the repair
// discards must come back with the flow cleared, and is then solved
// cold.
func warmOrCold(nw *Network) (int64, error) {
	cost, ok, err := nw.SolveSSPWarm(nil)
	if err != nil || ok {
		return cost, err
	}
	for a := 0; a < 2*nw.NumArcs(); a += 2 {
		if nw.Flow(a) != 0 {
			return 0, fmt.Errorf("discarded basis left flow %d on arc %d", nw.Flow(a), a)
		}
	}
	return nw.SolveSSP(nil)
}

// TestCostScalingLeavesExactPrices pins that SolveCostScaling leaves
// potentials in cost units under which no residual arc has a negative
// reduced cost, so its solved network transplants like an SSP-solved
// one: replayed onto the identical instance, the warm solve keeps the
// basis and returns the optimum.
func TestCostScalingLeavesExactPrices(t *testing.T) {
	const maxCost = 50
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		inst := randBipInstance(rng, maxCost)
		nw := NewNetwork(inst.nodes(), inst.arcs())
		inst.build(nw)
		cost, err := nw.SolveCostScaling(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for a := range nw.to {
			v, w := nw.to[a^1], nw.to[a]
			if rc := nw.cost[a] + nw.price[v] - nw.price[w]; nw.res[a] > 0 && rc < 0 {
				t.Fatalf("seed %d: residual arc %d->%d has reduced cost %d", seed, v, w, rc)
			}
		}
		same := NewNetwork(inst.nodes(), inst.arcs())
		inst.build(same)
		for a := 0; a < 2*inst.arcs(); a += 2 {
			same.PreloadFlow(a, nw.Flow(a))
		}
		for v := 0; v < inst.nodes(); v++ {
			same.SetPrice(v, nw.Price(v))
		}
		got, ok, err := same.SolveSSPWarm(nil)
		if err != nil || !ok || got != cost {
			t.Fatalf("seed %d: identity transplant of a cost-scaled basis: cost %d ok=%v err=%v, want %d", seed, got, ok, err, cost)
		}
	}
}

// TestSolveSSPWarmMatchesCold transplants a solved basis onto perturbed
// instances and pins the warm-solved cost to the cold SolveSSP and
// SolveCostScaling optima, across 200 seeds.
func TestSolveSSPWarmMatchesCold(t *testing.T) {
	const maxCost = 50
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randBipInstance(rng, maxCost)

		donor := NewNetwork(inst.nodes(), inst.arcs())
		inst.build(donor)
		donorCost, err := donor.SolveSSP(nil)
		if err != nil {
			t.Fatalf("seed %d: donor solve: %v", seed, err)
		}

		next := inst.perturb(rng, maxCost, rng.Intn(4))
		warm := NewNetwork(next.nodes(), next.arcs())
		next.build(warm)
		// Transplant: same node and arc layout, so the correspondence
		// is the identity.
		for a := 0; a < 2*inst.arcs(); a += 2 {
			warm.PreloadFlow(a, donor.Flow(a))
		}
		for v := 0; v < inst.nodes(); v++ {
			warm.SetPrice(v, donor.Price(v))
		}
		warmCost, err := warmOrCold(warm)
		if err != nil {
			t.Fatalf("seed %d: warm solve: %v", seed, err)
		}
		wantCold := coldCost(t, next)
		if warmCost != wantCold {
			t.Fatalf("seed %d: warm cost %d != cold cost %d", seed, warmCost, wantCold)
		}
		cs := NewNetwork(next.nodes(), next.arcs())
		next.build(cs)
		csCost, err := cs.SolveCostScaling(nil)
		if err != nil {
			t.Fatalf("seed %d: cost-scaling: %v", seed, err)
		}
		if warmCost != csCost {
			t.Fatalf("seed %d: warm cost %d != cost-scaling cost %d", seed, warmCost, csCost)
		}

		// Unperturbed transplant: the basis is already optimal, so the
		// warm solve must return the donor's cost without touching it.
		same := NewNetwork(inst.nodes(), inst.arcs())
		inst.build(same)
		for a := 0; a < 2*inst.arcs(); a += 2 {
			same.PreloadFlow(a, donor.Flow(a))
		}
		for v := 0; v < inst.nodes(); v++ {
			same.SetPrice(v, donor.Price(v))
		}
		sameCost, ok, err := same.SolveSSPWarm(nil)
		if err != nil || !ok {
			t.Fatalf("seed %d: identity warm solve: ok=%v err=%v", seed, ok, err)
		}
		if sameCost != donorCost {
			t.Fatalf("seed %d: identity warm cost %d != donor cost %d", seed, sameCost, donorCost)
		}

		// After ResetFlow the retained basis is gone (flow cleared,
		// prices zeroed) and the warm entry point must reproduce the
		// cold optimum from scratch on the same network object.
		warm.ResetFlow()
		resetCost, err := warmOrCold(warm)
		if err != nil {
			t.Fatalf("seed %d: post-ResetFlow warm solve: %v", seed, err)
		}
		if resetCost != wantCold {
			t.Fatalf("seed %d: post-ResetFlow warm cost %d != cold cost %d", seed, resetCost, wantCold)
		}
	}
}

// TestSolveSSPWarmGarbagePrices seeds adversarial potentials (no donor
// flow) and checks the saturation repair still lands on the optimum.
func TestSolveSSPWarmGarbagePrices(t *testing.T) {
	const maxCost = 25
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		inst := randBipInstance(rng, maxCost)
		want := coldCost(t, inst)

		nw := NewNetwork(inst.nodes(), inst.arcs())
		inst.build(nw)
		for v := 0; v < inst.nodes(); v++ {
			nw.SetPrice(v, rng.Int63n(2*maxCost+1)-maxCost)
		}
		got, err := warmOrCold(nw)
		if err != nil {
			t.Fatalf("seed %d: warm solve: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: warm cost %d != cold cost %d", seed, got, want)
		}
	}
}

// TestSolveSSPWarmInPlace pins the re-solve the term pipeline runs on
// its own solved network: some arcs left out of the first solve are
// added afterwards, and some costs are raised with SetCost (flowed arcs
// among them). SolveSSPWarm from the network's own flow and potentials
// must reach the cold optimum of the final instance.
func TestSolveSSPWarmInPlace(t *testing.T) {
	const maxCost = 50
	solved := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randBipInstance(rng, maxCost)
		cols := inst.nC + len(inst.slack)
		// Leave out about a third of the arcs outside column 0, so
		// every supplier keeps at least one.
		left := map[[2]int]bool{}
		for i := 0; i < inst.nS; i++ {
			for j := 1; j < cols; j++ {
				if rng.Intn(3) == 0 {
					left[[2]int{i, j}] = true
				}
			}
		}
		nw := NewNetwork(inst.nodes(), inst.arcs())
		arc := map[[2]int]int{}
		for i := 0; i < inst.nS; i++ {
			nw.SetExcess(i, inst.scale)
			for j := 0; j < cols; j++ {
				if !left[[2]int{i, j}] {
					arc[[2]int{i, j}] = nw.AddArc(i, inst.nS+j, inst.scale, inst.cost[i][j])
				}
			}
		}
		for j := 0; j < inst.nC; j++ {
			nw.SetExcess(inst.nS+j, -inst.scale)
		}
		for k, amt := range inst.slack {
			nw.SetExcess(inst.nS+inst.nC+k, -amt)
		}
		// The cut instance may be infeasible; skip it then.
		if _, err := nw.SolveSSP(nil); err != nil {
			continue
		}
		solved++
		final := inst.perturb(rng, maxCost, 0) // a copy of the costs
		for cell := range left {
			arc[cell] = nw.AddArc(cell[0], inst.nS+cell[1], inst.scale, inst.cost[cell[0]][cell[1]])
		}
		for cell, a := range arc {
			if rng.Intn(4) == 0 || nw.Flow(a) > 0 && rng.Intn(2) == 0 {
				c := inst.cost[cell[0]][cell[1]] + rng.Int63n(maxCost)
				final.cost[cell[0]][cell[1]] = c
				nw.SetCost(a, c)
			}
		}
		got, err := warmOrCold(nw)
		if err != nil {
			t.Fatalf("seed %d: in-place warm solve: %v", seed, err)
		}
		if want := coldCost(t, final); got != want {
			t.Fatalf("seed %d: in-place warm cost %d != cold cost %d", seed, got, want)
		}
	}
	if solved < 100 {
		t.Fatalf("only %d of 200 cut instances were feasible", solved)
	}
}
