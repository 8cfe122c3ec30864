package core

import (
	"context"
	"fmt"
	"sort"

	"snd/internal/flow"
	"snd/internal/graph"
	"snd/internal/opinion"
)

// Move is one entry of an SND transport plan at user granularity:
// Amount units of opinion mass shipped from user From to user To at
// UnitCost each. Bank endpoints (mass-mismatch absorption/creation)
// are reported with FromBank/ToBank set and the bank's anchor user in
// the corresponding field.
type Move struct {
	From, To         int
	FromBank, ToBank bool
	Amount           float64
	UnitCost         int64
}

// TermPlan is the transport plan of one EMD* term of eq. 3.
type TermPlan struct {
	// Op is the opinion this term transports.
	Op opinion.Opinion
	// GroundState names which state's ground distance applied ("G1" or
	// "G2").
	GroundState string
	// Value is the term's EMD* value.
	Value float64
	// Moves lists the plan's shipments, largest total cost first.
	Moves []Move
}

// Explain computes SND and returns, alongside the Result, the four
// terms' transport plans — which users' opinion mass covered which
// opinion changes, and what each unit cost. Every term takes the
// bipartite route (it is the one that materializes user-level arcs),
// whatever route an Engine would choose, and is solved exactly: the
// Result's envelope is degenerate (LB = UB = SND). Cancellation via ctx
// is observed between SSSP runs and flow pushes, like the Engine batch
// paths.
func Explain(ctx context.Context, g *graph.Digraph, a, b opinion.State, opts Options) (Result, [4]TermPlan, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, [4]TermPlan{}, err
	}
	specs := eqSpecs(a, b)
	var res Result
	var plans [4]TermPlan
	res.NDelta = a.DiffCount(b)
	for i, spec := range specs {
		red := reduce(spec, opts.Clusters, g.N())
		plans[i] = TermPlan{Op: spec.op, GroundState: refName(i)}
		if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
			continue // no route, as an Engine reports it (EngineAuto)
		}
		bp, nw, tv, err := solvedInstance(ctx, g, spec, red, opts)
		if err != nil {
			return Result{}, plans, fmt.Errorf("core: explain term %d: %w", i, err)
		}
		plans[i].Value = tv.val
		plans[i].Moves = bp.moves(nw)
		res.Terms[i] = tv.val
		res.SSSPRuns += tv.runs
		res.EnginesUsed[i] = EngineBipartite
		sort.Slice(plans[i].Moves, func(x, y int) bool {
			mx, my := plans[i].Moves[x], plans[i].Moves[y]
			cx := mx.Amount * float64(mx.UnitCost)
			cy := my.Amount * float64(my.UnitCost)
			if cx != cy {
				return cx > cy
			}
			return mx.From < my.From
		})
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	res.LB, res.UB = res.SND, res.SND
	return res, plans, nil
}

// solvedInstance runs red's bipartite fan-out and a cold flow solve,
// with no gate and no warm basis, and returns the instance with its
// solved network.
func solvedInstance(ctx context.Context, g *graph.Digraph, spec termSpec, red reduction, o Options) (*bipartite, *flow.Network, termVal, error) {
	bp := newBipartite(red, o.Gamma, infCost(g.N(), o.Costs.MaxCost(), o.EscapeHops))
	tc := termCtx{ctx: ctx, sc: &scratch{}}
	if err := tc.fanOut(g, spec, o, &bp); err != nil {
		return nil, nil, termVal{}, err
	}
	tv, nw, err := tc.flowSolve(&bp, nil)
	tv.runs = len(bp.sources)
	return &bp, nw, tv, err
}

// moves reads the user-level plan off nw, bp's solved network, in arc
// order. A bank endpoint is reported as its anchor (first member) user.
func (bp *bipartite) moves(nw *flow.Network) []Move {
	var out []Move
	nSup, nDem := bp.shape()
	for u := 0; u < nSup; u++ {
		for v := 0; v < nDem; v++ {
			k, j := bp.cell(u, v)
			a := bp.arc(k, j)
			if a < 0 || nw.Flow(a) <= 0 {
				continue
			}
			f := nw.Flow(a)
			src, col, bank := int(bp.sources[k]), 0, j >= bp.nOpp()
			if bank {
				col = int(bp.red.banks[j-bp.nOpp()].members[0])
			} else {
				col = int(bp.opposite[j])
			}
			mv := Move{From: src, To: col, ToBank: bank}
			if bp.rev {
				mv = Move{From: col, FromBank: bank, To: src}
			}
			mv.Amount = float64(f) / float64(bp.red.scale)
			mv.UnitCost = bp.cost(k, j)
			out = append(out, mv)
		}
	}
	return out
}
