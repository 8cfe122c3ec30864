package flow

import (
	"context"
	"fmt"
	"math"

	"snd/internal/pqueue"
)

// Network is a sparse min-cost flow network with int64 capacities and
// costs. Node excesses declare supplies (positive) and demands
// (negative); a solve routes all excess to deficits at minimum cost.
//
// This is the scalable substrate of the Theorem 4 pipeline: rather than
// materializing the quadratic ground-distance matrix, opinion mass is
// routed through the social network itself (arcs = social ties with
// quantized -log propagation costs, plus bank-bin arcs), which makes the
// optimal transportation cost equal to the EMD* value by the
// path-decomposition argument.
type Network struct {
	numNodes int
	// Arc arrays; arc a and a^1 are a forward/backward residual pair.
	to   []int32
	res  []int64 // residual capacity
	cost []int64 // cost (negated on the backward arc)
	// Adjacency: firstArc[v] heads a linked list via nextArc.
	firstArc []int32
	nextArc  []int32

	excess []int64
	price  []int64 // node potentials (shared by both solvers)

	// Solver scratch, reused across solves and across Reset so a
	// long-lived Network (one per engine worker) goes allocation-free
	// after warmup.
	scDist    []int64
	scVisited []bool
	scParent  []int32
	scEx      []int64
	scCost    []int64
	scPrice   []int64
	scQueue   []int32
	scInQueue []bool
	scCur     []int32
	scHeap    pqueue.Radix
}

// NewNetwork returns an empty network with n nodes and capacity hints
// for m arcs.
func NewNetwork(n, hintArcs int) *Network {
	first := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	return &Network{
		numNodes: n,
		to:       make([]int32, 0, 2*hintArcs),
		res:      make([]int64, 0, 2*hintArcs),
		cost:     make([]int64, 0, 2*hintArcs),
		firstArc: first,
		nextArc:  make([]int32, 0, 2*hintArcs),
		excess:   make([]int64, n),
		price:    make([]int64, n),
	}
}

// Reset re-dimensions the network to n nodes with arc storage for
// hintArcs arcs, dropping every arc, excess, and price while keeping
// the underlying allocations. It lets a worker reuse one Network
// across many term solves instead of allocating a fresh one each time.
func (nw *Network) Reset(n, hintArcs int) {
	nw.numNodes = n
	nw.to = nw.to[:0]
	nw.res = nw.res[:0]
	nw.cost = nw.cost[:0]
	nw.nextArc = nw.nextArc[:0]
	if cap(nw.to) < 2*hintArcs {
		nw.to = make([]int32, 0, 2*hintArcs)
		nw.res = make([]int64, 0, 2*hintArcs)
		nw.cost = make([]int64, 0, 2*hintArcs)
		nw.nextArc = make([]int32, 0, 2*hintArcs)
	}
	nw.firstArc = growInt32(nw.firstArc, n)
	nw.excess = growInt64(nw.excess, n)
	nw.price = growInt64(nw.price, n)
	for i := 0; i < n; i++ {
		nw.firstArc[i] = -1
		nw.excess[i] = 0
		nw.price[i] = 0
	}
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// N returns the node count.
func (nw *Network) N() int { return nw.numNodes }

// NumArcs returns the number of forward arcs added.
func (nw *Network) NumArcs() int { return len(nw.to) / 2 }

// AddArc adds a forward arc from->to with the given capacity and cost
// and returns its id. Costs must be >= 0 for SolveSSP; SolveCostScaling
// accepts arbitrary integer costs.
func (nw *Network) AddArc(from, to int, capacity, cost int64) int {
	if from < 0 || from >= nw.numNodes || to < 0 || to >= nw.numNodes {
		panic(fmt.Sprintf("flow: arc (%d,%d) out of range", from, to))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(nw.to)
	nw.addHalf(from, to, capacity, cost)
	nw.addHalf(to, from, 0, -cost)
	return id
}

func (nw *Network) addHalf(from, to int, capacity, cost int64) {
	nw.to = append(nw.to, int32(to))
	nw.res = append(nw.res, capacity)
	nw.cost = append(nw.cost, cost)
	nw.nextArc = append(nw.nextArc, nw.firstArc[from])
	nw.firstArc[from] = int32(len(nw.to) - 1)
}

// SetExcess declares the net supply (positive) or demand (negative) of
// node v, replacing any previous value.
func (nw *Network) SetExcess(v int, excess int64) { nw.excess[v] = excess }

// Flow returns the flow routed on the forward arc with the given id.
func (nw *Network) Flow(arcID int) int64 { return nw.res[arcID^1] }

// Excess returns node v's declared excess.
func (nw *Network) Excess(v int) int64 { return nw.excess[v] }

// TotalCost returns sum over forward arcs of flow * cost.
func (nw *Network) TotalCost() int64 {
	var total int64
	for a := 0; a < len(nw.to); a += 2 {
		total += nw.Flow(a) * nw.cost[a]
	}
	return total
}

func (nw *Network) totalSupply() (supply, demand int64) {
	for _, e := range nw.excess {
		if e > 0 {
			supply += e
		} else {
			demand -= e
		}
	}
	return supply, demand
}

// SolveSSP routes all declared excess by successive shortest paths with
// node potentials (Dijkstra on reduced costs). All arc costs must be
// non-negative. Returns the total routing cost.
//
// The solve checks ctx between augmentations (each augmentation is one
// Dijkstra plus one path update) and returns ctx.Err() when cancelled,
// leaving the network in an undefined partially-routed state; callers
// reuse it only via Reset. A nil ctx means no cancellation.
//
// Reduced costs are not bounded by the original arc costs, so Dial's
// bucket queue cannot be used here; the Dijkstra runs use the radix
// heap, which only needs monotonicity.
func (nw *Network) SolveSSP(ctx context.Context) (int64, error) {
	supply, demand := nw.totalSupply()
	if supply != demand {
		return 0, fmt.Errorf("flow: unbalanced network: supply %d != demand %d", supply, demand)
	}
	n := nw.numNodes
	nw.scEx = growInt64(nw.scEx, n)
	ex := nw.scEx
	copy(ex, nw.excess[:n])
	for i := range nw.price {
		nw.price[i] = 0
	}
	if err := nw.drainSSP(ctx, ex, supply); err != nil {
		return 0, err
	}
	return nw.TotalCost(), nil
}

// drainSSP routes the pseudoflow imbalances ex (positive = surplus,
// negative = deficit, summing to zero with total surplus `remaining`)
// to optimality by successive shortest paths over reduced costs,
// starting from the network's current prices. Every residual arc must
// have non-negative reduced cost on entry — true for a cold start
// (zero prices, non-negative costs) and re-established by the warm
// path's saturation repair.
func (nw *Network) drainSSP(ctx context.Context, ex []int64, remaining int64) error {
	n := nw.numNodes
	nw.scDist = growInt64(nw.scDist, n)
	nw.scVisited = growBool(nw.scVisited, n)
	nw.scParent = growInt32(nw.scParent, n)
	dist, visited, parentArc := nw.scDist, nw.scVisited, nw.scParent
	q := &nw.scHeap
	for remaining > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Multi-source Dijkstra from all positive-excess nodes over
		// reduced costs rc(a: v->w) = cost(a) + price(v) - price(w).
		for i := range dist {
			dist[i] = math.MaxInt64
			visited[i] = false
			parentArc[i] = -1
		}
		q.Reset()
		for v := 0; v < n; v++ {
			if ex[v] > 0 {
				dist[v] = 0
				q.Push(v, 0)
			}
		}
		target := -1
		var targetDist int64 = math.MaxInt64
		for {
			v, key, ok := q.Pop()
			if !ok {
				break
			}
			if visited[v] || key > dist[v] {
				continue
			}
			visited[v] = true
			if ex[v] < 0 && key < targetDist {
				target, targetDist = v, key
				break // Dijkstra pops in order; first deficit is closest
			}
			for a := nw.firstArc[v]; a >= 0; a = nw.nextArc[a] {
				if nw.res[a] <= 0 {
					continue
				}
				w := int(nw.to[a])
				rc := nw.cost[a] + nw.price[v] - nw.price[w]
				if rc < 0 {
					return fmt.Errorf("flow: negative reduced cost %d on arc %d->%d", rc, v, w)
				}
				if nd := key + rc; nd < dist[w] {
					dist[w] = nd
					parentArc[w] = int32(a)
					q.Push(w, nd)
				}
			}
		}
		if target < 0 {
			return fmt.Errorf("flow: infeasible: %d units stranded", remaining)
		}
		// Update prices with the capped distances.
		for v := 0; v < n; v++ {
			d := dist[v]
			if d > targetDist {
				d = targetDist
			}
			nw.price[v] += d
		}
		// Trace back the path, find bottleneck, augment.
		bottleneck := -ex[target]
		src := target
		for a := parentArc[src]; a >= 0; a = parentArc[src] {
			if nw.res[a] < bottleneck {
				bottleneck = nw.res[a]
			}
			src = int(nw.to[a^1])
		}
		if ex[src] < bottleneck {
			bottleneck = ex[src]
		}
		v := target
		for a := parentArc[v]; a >= 0; a = parentArc[v] {
			nw.res[a] -= bottleneck
			nw.res[a^1] += bottleneck
			v = int(nw.to[a^1])
		}
		ex[src] -= bottleneck
		ex[target] += bottleneck
		remaining -= bottleneck
	}
	return nil
}

// ResetFlow clears any routed flow, restoring residual capacities to
// the original arc capacities, so another solver can run on the same
// network.
func (nw *Network) ResetFlow() {
	for a := 0; a < len(nw.to); a += 2 {
		nw.res[a] += nw.res[a^1]
		nw.res[a^1] = 0
	}
	for i := range nw.price {
		nw.price[i] = 0
	}
}
