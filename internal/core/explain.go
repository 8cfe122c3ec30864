package core

import (
	"context"
	"fmt"
	"sort"

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
// whatever route Distance would choose. Cancellation via ctx is
// observed between SSSP runs and flow pushes, like the Engine batch
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
			res.EnginesUsed[i] = EngineBipartite
			continue
		}
		v, runs, err := termBipartiteCollect(ctx, g, spec, red, opts, &plans[i].Moves)
		if err != nil {
			return Result{}, plans, fmt.Errorf("core: explain term %d: %w", i, err)
		}
		plans[i].Value = v
		res.Terms[i] = v
		res.SSSPRuns += runs
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
	return res, plans, nil
}

// termBipartiteCollect runs the bipartite pipeline and harvests the
// per-arc flows into user-level moves.
func termBipartiteCollect(ctx context.Context, g *graph.Digraph, spec termSpec, red reduction, o Options, out *[]Move) (float64, int, error) {
	tv, nw, arcs, err := termBipartiteNetwork(g, spec, red, o, termCtx{ctx: ctx}, true, 0)
	v, runs := tv.val, tv.runs
	if err != nil {
		return 0, runs, err
	}
	for _, a := range arcs {
		f := nw.Flow(a.id)
		if f <= 0 {
			continue
		}
		*out = append(*out, Move{
			From:     a.from,
			To:       a.to,
			FromBank: a.fromBank,
			ToBank:   a.toBank,
			Amount:   float64(f) / float64(red.scale),
			UnitCost: a.cost,
		})
	}
	return v, runs, nil
}

// arcRef remembers what a bipartite network arc meant in user terms.
type arcRef struct {
	id               int
	from, to         int
	fromBank, toBank bool
	cost             int64
}
