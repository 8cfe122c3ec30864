package flow

import (
	"math"
	"testing"
)

// coldCase is one decoded instance of the shape the SND term pipeline
// solves cold: u residual users on one side (the other side of the
// reduced instance empty) against k banks with large capacities. A
// user ships or receives `scale` units, the number of bank members
// summed over banks; bank b holds u*members[b] units, and its arcs
// carry min(units, scale), as the pipeline assembles them.
type coldCase struct {
	u, k            int
	banksOnSupplier bool
	scale           int64
	units           []int64
	cost            [][]int64 // [user][bank]
}

func decodeColdCase(data []byte) coldCase {
	in := data
	next := func(mod int) int {
		if len(in) == 0 {
			return 0
		}
		v := int(in[0])
		in = in[1:]
		return v % mod
	}
	c := coldCase{u: 1 + next(12), k: 1 + next(8), banksOnSupplier: next(2) == 1}
	maxCost := int64(1 + next(64))
	c.units = make([]int64, c.k)
	for b := range c.units {
		members := int64(1 + next(6))
		c.scale += members
		c.units[b] = int64(c.u) * members
	}
	c.cost = make([][]int64, c.u)
	for i := range c.cost {
		c.cost[i] = make([]int64, c.k)
		for b := range c.cost[i] {
			c.cost[i][b] = int64(next(256)) % (maxCost + 1)
		}
	}
	return c
}

// network assembles the case: the supplying side's nodes first.
func (c coldCase) network() *Network {
	nw := NewNetwork(c.u+c.k, c.u*c.k)
	if c.banksOnSupplier {
		for b, units := range c.units {
			nw.SetExcess(b, units)
		}
		for i := 0; i < c.u; i++ {
			nw.SetExcess(c.k+i, -c.scale)
		}
		for b, units := range c.units {
			for i := 0; i < c.u; i++ {
				nw.AddArc(b, c.k+i, min(units, c.scale), c.cost[i][b])
			}
		}
		return nw
	}
	for i := 0; i < c.u; i++ {
		nw.SetExcess(i, c.scale)
		for b, units := range c.units {
			nw.AddArc(i, c.u+b, min(units, c.scale), c.cost[i][b])
		}
	}
	for b, units := range c.units {
		nw.SetExcess(c.u+b, -units)
	}
	return nw
}

// dense is the same transportation problem without arc capacities,
// which never bind: a user ships or receives at most scale units, and
// a bank at most its own units.
func (c coldCase) dense() Dense {
	users := make([]float64, c.u)
	for i := range users {
		users[i] = float64(c.scale)
	}
	banks := make([]float64, c.k)
	for b, units := range c.units {
		banks[b] = float64(units)
	}
	if c.banksOnSupplier {
		return Dense{Supply: banks, Demand: users, Cost: func(b, i int) float64 { return float64(c.cost[i][b]) }}
	}
	return Dense{Supply: users, Demand: banks, Cost: func(i, b int) float64 { return float64(c.cost[i][b]) }}
}

// FuzzColdSolvers is the differential check behind the cold-solver
// rule: on residual-users x banks instances in both orientations,
// SolveSSP, SolveCostScaling and SSPDense agree on the optimal cost,
// and both network solvers leave potentials under which no residual arc
// has a negative reduced cost (what a warm-start transplant relies on).
func FuzzColdSolvers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeColdCase(data)
		var costs [2]int64
		for i, solve := range []func(*Network) (int64, error){
			func(nw *Network) (int64, error) { return nw.SolveSSP(nil) },
			func(nw *Network) (int64, error) { return nw.SolveCostScaling(nil) },
		} {
			nw := c.network()
			cost, err := solve(nw)
			if err != nil {
				t.Fatalf("solver %d: %v (case %+v)", i, err, c)
			}
			for a := range nw.to {
				v, w := nw.to[a^1], nw.to[a]
				if rc := nw.cost[a] + nw.price[v] - nw.price[w]; nw.res[a] > 0 && rc < 0 {
					t.Fatalf("solver %d: residual arc %d->%d has reduced cost %d (case %+v)", i, v, w, rc, c)
				}
			}
			costs[i] = cost
		}
		p := c.dense()
		plan, err := SSPDense(p)
		if err != nil {
			t.Fatalf("SSPDense: %v (case %+v)", err, c)
		}
		if err := ValidatePlan(p, plan); err != nil {
			t.Fatalf("SSPDense plan: %v (case %+v)", err, c)
		}
		if dense := int64(math.Round(plan.Cost)); costs[0] != costs[1] || costs[0] != dense {
			t.Fatalf("SolveSSP %d, SolveCostScaling %d, SSPDense %d (case %+v)", costs[0], costs[1], dense, c)
		}
	})
}

// TestSolveSSPAllocationFree pins the Network's reuse contract for SSP:
// after one warm-up solve, re-solving the same network allocates
// nothing (the radix heap lives in the solver scratch with the other
// buffers and keeps its bucket capacity).
func TestSolveSSPAllocationFree(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	for _, onSupplier := range []byte{0, 1} {
		data[0], data[1], data[2] = 11, 7, onSupplier // 12 users, 8 banks
		nw := decodeColdCase(data).network()
		want, err := nw.SolveSSP(nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			nw.ResetFlow()
			if got, err := nw.SolveSSP(nil); err != nil || got != want {
				t.Fatalf("re-solve: cost %d err %v, want %d", got, err, want)
			}
		})
		if allocs != 0 {
			t.Errorf("banksOnSupplier=%d: warmed SolveSSP allocates %.1f times per solve", onSupplier, allocs)
		}
	}
}
