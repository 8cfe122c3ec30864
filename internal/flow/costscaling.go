package flow

import (
	"context"
	"fmt"
	"math"
)

// cancelCheckInterval is how many FIFO queue pops the cost-scaling
// solver processes between ctx checks. Each pop drains one node's
// excess (a run of pushes, possibly with relabels), so the interval
// bounds the extra work after cancellation without putting a ctx load
// on the per-push hot path.
const cancelCheckInterval = 1024

// SolveCostScaling routes all declared excess with Goldberg-Tarjan
// cost-scaling push-relabel — the algorithm behind the CS2 solver used
// by the paper's released implementation. Arc costs may be any int64;
// capacities and excesses must be integers (they are, throughout the
// SND pipeline, after the mass scaling described in package emd).
//
// The implementation multiplies costs by (n+1) and halves epsilon each
// refine round until epsilon < 1, at which point the epsilon-optimal
// flow is optimal. Within a refine, admissible arcs (residual arcs with
// negative reduced cost) are saturated first and remaining excesses are
// drained by FIFO push/relabel.
//
// The solve checks ctx at every refine round and every
// cancelCheckInterval queue pops, returning ctx.Err() when cancelled
// and leaving the network partially routed (reuse only via Reset). A
// nil ctx means no cancellation.
func (nw *Network) SolveCostScaling(ctx context.Context) (int64, error) {
	supply, demand := nw.totalSupply()
	if supply != demand {
		return 0, fmt.Errorf("flow: unbalanced network: supply %d != demand %d", supply, demand)
	}
	n := nw.numNodes
	scale := int64(n + 1)
	// Scaled costs; prices live in the scaled domain too.
	nw.scCost = growInt64(nw.scCost, len(nw.cost))
	scost := nw.scCost
	var eps int64 = 1
	for a, c := range nw.cost {
		sc := c * scale
		scost[a] = sc
		if sc > eps {
			eps = sc
		} else if -sc > eps {
			eps = -sc
		}
	}
	nw.scPrice = growInt64(nw.scPrice, n)
	price := nw.scPrice
	nw.scEx = growInt64(nw.scEx, n)
	ex := nw.scEx
	for i := 0; i < n; i++ {
		price[i] = 0
		ex[i] = nw.excess[i]
	}

	if cap(nw.scQueue) < n {
		nw.scQueue = make([]int32, 0, n)
	}
	queue := nw.scQueue[:0]
	nw.scInQueue = growBool(nw.scInQueue, n)
	inQueue := nw.scInQueue
	for i := range inQueue[:n] {
		inQueue[i] = false
	}
	// current-arc pointers for the arc heuristic
	nw.scCur = growInt32(nw.scCur, n)
	cur := nw.scCur

	relabelBudget := int64(0)
	pops := 0
	for eps >= 1 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		// Saturate every admissible arc to establish eps/..-optimality.
		for v := 0; v < n; v++ {
			for a := nw.firstArc[v]; a >= 0; a = nw.nextArc[a] {
				if nw.res[a] <= 0 {
					continue
				}
				w := int(nw.to[a])
				if scost[a]+price[v]-price[w] < 0 {
					amt := nw.res[a]
					nw.res[a] = 0
					nw.res[a^1] += amt
					ex[v] -= amt
					ex[w] += amt
				}
			}
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			cur[v] = nw.firstArc[v]
			inQueue[v] = false
			if ex[v] > 0 {
				queue = append(queue, int32(v))
				inQueue[v] = true
			}
		}
		// FIFO push/relabel loop.
		relabelBudget = 8 * int64(n) * int64(n) * 4 // safety net, far above the O(n^2) relabels per refine
		for len(queue) > 0 {
			if pops++; ctx != nil && pops%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			v := int(queue[0])
			queue = queue[1:]
			inQueue[v] = false
			for ex[v] > 0 {
				a := cur[v]
				if a < 0 {
					// Relabel: lower price(v) to make some residual
					// arc admissible.
					if relabelBudget--; relabelBudget < 0 {
						return 0, fmt.Errorf("flow: cost-scaling relabel budget exhausted (infeasible instance?)")
					}
					best := int64(-1 << 62)
					found := false
					for b := nw.firstArc[v]; b >= 0; b = nw.nextArc[b] {
						if nw.res[b] <= 0 {
							continue
						}
						w := int(nw.to[b])
						if cand := price[w] - scost[b]; cand > best {
							best = cand
							found = true
						}
					}
					if !found {
						return 0, fmt.Errorf("flow: infeasible: node %d has excess %d and no residual arcs", v, ex[v])
					}
					price[v] = best - eps
					cur[v] = nw.firstArc[v]
					continue
				}
				if nw.res[a] > 0 {
					w := int(nw.to[a])
					if scost[a]+price[v]-price[w] < 0 {
						// Push.
						amt := ex[v]
						if nw.res[a] < amt {
							amt = nw.res[a]
						}
						nw.res[a] -= amt
						nw.res[a^1] += amt
						ex[v] -= amt
						wHadNoExcess := ex[w] <= 0
						ex[w] += amt
						if wHadNoExcess && ex[w] > 0 && !inQueue[w] {
							queue = append(queue, nw.to[a])
							inQueue[w] = true
						}
						continue
					}
				}
				cur[v] = nw.nextArc[a]
			}
		}
		if eps == 1 {
			break
		}
		eps /= 2
	}
	if err := nw.exactPrices(price, scale); err != nil {
		return 0, err
	}
	return nw.TotalCost(), nil
}

// exactPrices turns cost-scaling's final potentials, which live in the
// scale-multiplied domain and are only 1-optimal there, into
// non-negative node potentials in cost units under which every
// residual arc has a non-negative reduced cost, as SolveSSP leaves
// them. Rounding the scaled potentials down leaves some residual arcs
// at reduced cost -1; a label-correcting pass (FIFO Bellman-Ford over
// residual arcs) lowers potentials until none is negative. The flow is
// optimal, so the residual graph has no negative cycle and the pass
// terminates, after few relabels because it starts within 1 of
// feasibility. A solved network is then a sound warm-start donor
// whichever solver produced it.
func (nw *Network) exactPrices(scaled []int64, scale int64) error {
	n := nw.numNodes
	for v := 0; v < n; v++ {
		p := scaled[v] / scale
		if scaled[v]%scale < 0 {
			p-- // floor, not truncation, for negative potentials
		}
		nw.price[v] = p
	}
	// Ring-buffer FIFO: inQueue keeps each node queued at most once,
	// so n slots suffice.
	if cap(nw.scQueue) < n {
		nw.scQueue = make([]int32, n)
	}
	queue := nw.scQueue[:n]
	inQueue := nw.scInQueue[:n]
	for v := 0; v < n; v++ {
		queue[v] = int32(v)
		inQueue[v] = true
	}
	head, size := 0, n
	// FIFO Bellman-Ford settles within n passes over the queue, each
	// popping a node at most once; more means a negative cycle, which
	// an optimal flow cannot have.
	budget := int64(n) * int64(n+1)
	for size > 0 {
		if budget--; budget < 0 {
			return fmt.Errorf("flow: cost-scaling potentials did not converge (negative residual cycle)")
		}
		v := int(queue[head])
		head = (head + 1) % n
		size--
		inQueue[v] = false
		for a := nw.firstArc[v]; a >= 0; a = nw.nextArc[a] {
			if nw.res[a] <= 0 {
				continue
			}
			w := int(nw.to[a])
			if p := nw.price[v] + nw.cost[a]; p < nw.price[w] {
				nw.price[w] = p
				if !inQueue[w] {
					queue[(head+size)%n] = int32(w)
					size++
					inQueue[w] = true
				}
			}
		}
	}
	// Shift to a zero minimum (reduced costs are shift-invariant): the
	// potentials are then non-negative like SSP's, which the transplant
	// seeding of unmatched nodes relies on.
	lo := int64(math.MaxInt64)
	for _, p := range nw.price[:n] {
		lo = min(lo, p)
	}
	for v := range nw.price[:n] {
		nw.price[v] -= lo
	}
	return nil
}
