package opinion

import (
	"fmt"
	"math"

	"snd/internal/graph"
)

// PenaltyModel maps (network, state, opinion) to the integer
// -log(Pout) spreading penalties of eq. 2, one per CSR edge.
type PenaltyModel interface {
	// Penalties returns the spreading penalty of every edge of g for
	// opinion op under state st, aligned with g's CSR edge order.
	Penalties(g *graph.Digraph, st State, op Opinion) []int32
	// MaxPenalty returns the largest value Penalties can emit.
	MaxPenalty() int32
	// Name identifies the model in logs and benchmarks.
	Name() string
}

// GroundCosts combines the three cost components of eq. 2 into the
// final integer edge costs: CommCost (the -log P communication term,
// defaulting to the connectivity matrix's unit penalty for topological
// remoteness), InCost (the -log Pin stubbornness term, defaulting to 0
// = all users equally persuadable), and the model's -log Pout term.
type GroundCosts struct {
	CommCost int32
	InCost   int32
	// PerUserIn optionally adds a per-user stubbornness cost to every
	// edge *into* that user (the -log Pin term of eq. 2 with
	// user-specific susceptibility, Yildiz et al. [28]). Length must
	// equal the graph's node count when set; values must be >= 0.
	PerUserIn []int32
	Model     PenaltyModel
}

// DefaultGroundCosts returns the configuration used throughout the
// experiments: unit communication cost, no stubbornness, and the given
// spreading model.
func DefaultGroundCosts(m PenaltyModel) GroundCosts {
	return GroundCosts{CommCost: 1, InCost: 0, Model: m}
}

// LocalPenaltyModel marks penalty models whose per-edge penalty is a
// pure function of the edge's endpoint opinions. For such models a
// sparse state update only moves the costs of edges incident to the
// changed users, which is what lets GroundCosts.PatchEdgeCosts update a
// materialized cost array in O(delta * degree) instead of O(N + M).
//
// Models whose penalties aggregate over neighborhoods (ICC's activation
// mass, LinearThreshold's in-weights) are not local: a single opinion
// flip can move the penalty of edges two hops away, so they fall back
// to full rematerialization.
type LocalPenaltyModel interface {
	PenaltyModel
	// EdgePenalty returns the penalty of an edge whose tail (spreader)
	// holds su and whose head (receiver) holds sv, for opinion op. It
	// must agree with Penalties: for every edge e = (u, v),
	// Penalties(g, st, op)[e] == EdgePenalty(st[u], st[v], op).
	EdgePenalty(su, sv, op Opinion) int32
}

// EdgeCosts materializes the integer ground-distance edge costs for
// propagating op through state st: CommCost + InCost + model penalty.
// Every cost is a positive integer bounded by MaxCost (Assumption 2).
func (gc GroundCosts) EdgeCosts(g *graph.Digraph, st State, op Opinion) []int32 {
	if len(st) != g.N() {
		panic(fmt.Sprintf("opinion: state has %d users, graph %d", len(st), g.N()))
	}
	base := gc.CommCost + gc.InCost
	if base < 1 {
		panic("opinion: CommCost+InCost must be >= 1 to keep costs positive")
	}
	if gc.PerUserIn != nil && len(gc.PerUserIn) != g.N() {
		panic(fmt.Sprintf("opinion: PerUserIn has %d entries, graph %d", len(gc.PerUserIn), g.N()))
	}
	w := gc.Model.Penalties(g, st, op)
	for e := range w {
		w[e] += base
		if gc.PerUserIn != nil {
			s := gc.PerUserIn[g.Head(e)]
			if s < 0 {
				panic(fmt.Sprintf("opinion: negative stubbornness %d for user %d", s, g.Head(e)))
			}
			w[e] += s
		}
	}
	return w
}

// PatchEdgeCosts updates w — the EdgeCosts of an earlier state — in
// place to the EdgeCosts of st, where changed lists the users whose
// opinion differs between the two states (listing an unchanged user is
// harmless, omitting a changed one is not; duplicates are tolerated).
// Only the edges incident to changed users are touched: their out-edges
// directly, their in-edges through the graph transpose. The CSR indices
// of every edge whose stored cost actually moved are appended to
// touchedBuf and returned (each index at most once) — they are exactly
// the dirty set a cached shortest-path tree over w must be repaired
// with.
//
// ok is false when the model does not implement LocalPenaltyModel; w is
// left untouched and the caller must rematerialize with EdgeCosts.
func (gc GroundCosts) PatchEdgeCosts(g *graph.Digraph, st State, changed []int32, op Opinion, w []int32, touchedBuf []int32) (touched []int32, ok bool) {
	lm, isLocal := gc.Model.(LocalPenaltyModel)
	if !isLocal {
		return touchedBuf, false
	}
	if len(st) != g.N() {
		panic(fmt.Sprintf("opinion: state has %d users, graph %d", len(st), g.N()))
	}
	if len(w) != g.M() {
		panic(fmt.Sprintf("opinion: cost array has %d entries, graph has %d edges", len(w), g.M()))
	}
	base := gc.CommCost + gc.InCost
	if base < 1 {
		panic("opinion: CommCost+InCost must be >= 1 to keep costs positive")
	}
	if gc.PerUserIn != nil && len(gc.PerUserIn) != g.N() {
		panic(fmt.Sprintf("opinion: PerUserIn has %d entries, graph %d", len(gc.PerUserIn), g.N()))
	}
	touched = touchedBuf
	inChanged := make(map[int32]bool, len(changed))
	for _, u := range changed {
		inChanged[u] = true
	}
	stub := func(v int32) int32 {
		if gc.PerUserIn == nil {
			return 0
		}
		s := gc.PerUserIn[v]
		if s < 0 {
			panic(fmt.Sprintf("opinion: negative stubbornness %d for user %d", s, v))
		}
		return s
	}
	for u := range inChanged {
		lo, hi := g.EdgeRange(int(u))
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			c := base + lm.EdgePenalty(st[u], st[v], op) + stub(v)
			if w[e] != c {
				w[e] = c
				touched = append(touched, int32(e))
			}
		}
		tails, edges := g.InEdges(int(u))
		for j, p := range tails {
			if inChanged[p] {
				continue // covered by p's own out-edge pass
			}
			e := edges[j]
			c := base + lm.EdgePenalty(st[p], st[u], op) + stub(u)
			if w[e] != c {
				w[e] = c
				touched = append(touched, e)
			}
		}
	}
	return touched, true
}

// MaxCost returns U, the upper bound on any edge cost.
func (gc GroundCosts) MaxCost() int64 {
	max := int64(gc.CommCost) + int64(gc.InCost) + int64(gc.Model.MaxPenalty())
	var stub int64
	for _, s := range gc.PerUserIn {
		if int64(s) > stub {
			stub = int64(s)
		}
	}
	return max + stub
}

// Quantizer maps probabilities to the integer -log penalties required
// by Assumption 2: Quantize(p) = round(-ln(p) * Scale), clamped to
// [0, Max]. Probabilities at or below Epsilon (the paper's "negligible
// probability assigned to impossible events") saturate at Max.
type Quantizer struct {
	Scale   float64
	Max     int32
	Epsilon float64
}

// DefaultQuantizer covers probabilities down to ~e^-7 at unit scale,
// giving edge costs within U = 8 + CommCost.
var DefaultQuantizer = Quantizer{Scale: 1, Max: 8, Epsilon: 1e-3}

// Quantize returns the integer penalty for probability p.
func (q Quantizer) Quantize(p float64) int32 {
	if p >= 1 {
		return 0
	}
	if p <= q.Epsilon || math.IsNaN(p) {
		return q.Max
	}
	v := int32(math.Round(-math.Log(p) * q.Scale))
	if v < 0 {
		v = 0
	}
	if v > q.Max {
		v = q.Max
	}
	return v
}

// Agnostic is the model-agnostic penalty scheme of Section 3: users
// spread opinions similar to their own cheaply (Friendly), adverse
// opinions expensively (Adverse), with neutral users in between.
//
// The paper's case list overlaps as written ("adverse if G[u] != op");
// we implement the stated intent: the Adverse penalty applies when the
// spreader or the receiver holds the competing opinion -op, Neutral
// when the spreader is neutral, Friendly when the spreader holds op.
type Agnostic struct {
	Friendly int32
	NeutralC int32
	Adverse  int32
}

// DefaultAgnostic is the penalty triple used by the experiments;
// Friendly < Neutral < Adverse as the paper requires.
var DefaultAgnostic = Agnostic{Friendly: 0, NeutralC: 4, Adverse: 16}

// NewAgnostic validates Friendly < NeutralC < Adverse and returns the
// model.
func NewAgnostic(friendly, neutral, adverse int32) (Agnostic, error) {
	if friendly < 0 || !(friendly < neutral && neutral < adverse) {
		return Agnostic{}, fmt.Errorf("opinion: need 0 <= friendly < neutral < adverse, got %d %d %d",
			friendly, neutral, adverse)
	}
	return Agnostic{Friendly: friendly, NeutralC: neutral, Adverse: adverse}, nil
}

// Name implements PenaltyModel.
func (a Agnostic) Name() string { return "agnostic" }

// MaxPenalty implements PenaltyModel.
func (a Agnostic) MaxPenalty() int32 { return a.Adverse }

// EdgePenalty implements LocalPenaltyModel: the agnostic penalty of one
// edge depends only on the spreader's and receiver's opinions, so
// sparse state updates patch cost arrays locally.
func (a Agnostic) EdgePenalty(su, sv, op Opinion) int32 {
	adverse := op.Opposite()
	switch {
	case su == adverse || sv == adverse:
		return a.Adverse
	case su == Neutral:
		return a.NeutralC
	default: // su == op
		return a.Friendly
	}
}

// Penalties implements PenaltyModel.
func (a Agnostic) Penalties(g *graph.Digraph, st State, op Opinion) []int32 {
	w := make([]int32, g.M())
	adverse := op.Opposite()
	for u := 0; u < g.N(); u++ {
		lo, hi := g.EdgeRange(u)
		var base int32
		switch st[u] {
		case adverse:
			base = -1 // spreader holds the competing opinion
		case Neutral:
			base = a.NeutralC
		default: // st[u] == op
			base = a.Friendly
		}
		for e := lo; e < hi; e++ {
			if base < 0 || st[g.Head(e)] == adverse {
				w[e] = a.Adverse
			} else {
				w[e] = base
			}
		}
	}
	return w
}

// ICC is the distance-based Independent Cascade model with Competition
// of Carnes et al. (EC'07), adapted to edge-local activation: for each
// user v, the active in-neighbors at minimal edge distance are the ones
// that may activate v, splitting the activation probability mass
// proportionally to the edge probabilities p_uv. Events the model posits
// as impossible receive probability Epsilon rather than zero so that
// any two states remain at finite distance (Section 3).
type ICC struct {
	// EdgeProb is the activation probability p_uv used for every edge
	// (a learned per-edge vector can be plugged via PerEdgeProb).
	EdgeProb float64
	// PerEdgeProb optionally overrides EdgeProb per CSR edge index.
	PerEdgeProb []float64
	// Quant maps the resulting probabilities to integer penalties.
	Quant Quantizer
}

// DefaultICC is the ICC configuration used in the experiments.
var DefaultICC = ICC{EdgeProb: 0.5, Quant: DefaultQuantizer}

// Name implements PenaltyModel.
func (m ICC) Name() string { return "icc" }

// MaxPenalty implements PenaltyModel.
func (m ICC) MaxPenalty() int32 { return m.Quant.Max }

func (m ICC) prob(e int) float64 {
	if m.PerEdgeProb != nil {
		return m.PerEdgeProb[e]
	}
	return m.EdgeProb
}

// Penalties implements PenaltyModel. Cases (paper Section 3, ICC):
//
//	u not at minimal distance among active in-neighbors -> epsilon
//	u = op, v = op                                       -> 1
//	u = op, v = 0, u minimal       -> max(0, p_uv - eps) / pa(v)
//	otherwise                                            -> epsilon
func (m ICC) Penalties(g *graph.Digraph, st State, op Opinion) []int32 {
	w := make([]int32, g.M())
	rev := g.Reverse()
	// For each v: the minimal edge distance from an active in-neighbor
	// and the total activation probability mass at that distance. With
	// unit edge distances, "minimal distance" degenerates to "has an
	// active in-neighbor", and pa(v) sums p_uv over those.
	pa := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range rev.Out(v) {
			if st[u] != Neutral {
				e := g.EdgeIndex(int(u), v)
				pa[v] += m.prob(e)
			}
		}
	}
	epsPenalty := m.Quant.Max
	for u := 0; u < g.N(); u++ {
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			switch {
			case st[u] == op && st[v] == op:
				w[e] = 0 // probability 1
			case st[u] == op && st[v] == Neutral:
				p := math.Max(0, m.prob(e)-m.Quant.Epsilon)
				if pa[v] > 0 {
					p /= pa[v]
				} else {
					p = 0
				}
				w[e] = m.Quant.Quantize(p)
			default:
				w[e] = epsPenalty
			}
		}
	}
	return w
}

// LinearThreshold is the competitive Linear Threshold model of Borodin
// et al. (WINE'10): edge (u,v) carries influence weight omega_uv and v
// activates when the active in-weight reaches theta_v. As with ICC,
// impossible events get probability Epsilon.
type LinearThreshold struct {
	// Omega is the per-edge influence weight (uniform).
	Omega float64
	// ThetaFrac sets each user's threshold as a fraction of its total
	// in-weight.
	ThetaFrac float64
	Quant     Quantizer
}

// DefaultLinearThreshold is the LT configuration used in experiments.
var DefaultLinearThreshold = LinearThreshold{Omega: 1, ThetaFrac: 0.3, Quant: DefaultQuantizer}

// Name implements PenaltyModel.
func (m LinearThreshold) Name() string { return "linear-threshold" }

// MaxPenalty implements PenaltyModel.
func (m LinearThreshold) MaxPenalty() int32 { return m.Quant.Max }

// Penalties implements PenaltyModel. Cases (paper Section 3, LT):
//
//	u = op, v = op                                  -> 1
//	u = op, v = 0, active in-weight >= theta_v      -> (1-eps)*omega/OmegaIn
//	otherwise                                       -> epsilon
func (m LinearThreshold) Penalties(g *graph.Digraph, st State, op Opinion) []int32 {
	w := make([]int32, g.M())
	rev := g.Reverse()
	omegaIn := make([]float64, g.N())
	theta := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range rev.Out(v) {
			if st[u] != Neutral {
				omegaIn[v] += m.Omega
			}
		}
		theta[v] = m.ThetaFrac * m.Omega * float64(rev.OutDegree(v))
	}
	epsPenalty := m.Quant.Max
	for u := 0; u < g.N(); u++ {
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			v := g.Head(e)
			switch {
			case st[u] == op && st[v] == op:
				w[e] = 0
			case st[u] == op && st[v] == Neutral && omegaIn[v] >= theta[v] && omegaIn[v] > 0:
				p := (1 - m.Quant.Epsilon) * m.Omega / omegaIn[v]
				w[e] = m.Quant.Quantize(p)
			default:
				w[e] = epsPenalty
			}
		}
	}
	return w
}
