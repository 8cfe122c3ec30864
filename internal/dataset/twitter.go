// Package dataset generates the synthetic stand-in for the paper's
// Twitter corpus (Macropol et al. [19]): ~10k users with an average of
// 130 follower-followee edges, quarterly network states from May 2008
// to August 2011 on a political topic, a Google-Trends-like interest
// series, and a labelled event timeline.
//
// The substitution (docs/ARCHITECTURE.md, "Design notes") preserves
// the two signal classes the paper's Twitter experiments measure:
//
//   - Consensus events (election, Nobel, bin Laden): large activation
//     surges that every distance measure can see.
//   - Polarized events (Economic Stimulus Bill, the ACA): activation
//     volume stays near the organic trend, but new activations align
//     with the two follower communities *against* local neighborhood
//     exposure — boundary users surrounded by the competing opinion
//     activate with their camp's opinion. Coordinate-wise measures see
//     nothing unusual; SND's adverse-propagation costs spike.
package dataset

import (
	"fmt"
	"math/rand"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// Event is one ground-truth anomaly in the timeline.
type Event struct {
	// Quarter indexes the state (0-based) at which the event lands.
	Quarter int
	// Name describes the event.
	Name string
	// Polarized marks pattern-anomalies (visible to SND only);
	// consensus events are volume anomalies visible to everything.
	Polarized bool
	// Magnitude scales the event's activation effect (fraction of
	// currently neutral users touched).
	Magnitude float64
}

// Config parameterizes the generator. Zero values select the
// paper-scale defaults (10k users, avg degree 130, 13 quarters).
type Config struct {
	Users     int
	AvgDegree float64
	Quarters  int
	// OrganicRate is the per-quarter fraction of neutral users that
	// activates organically (via neighbor voting).
	OrganicRate float64
	Seed        int64
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 10000
	}
	if c.AvgDegree <= 0 {
		c.AvgDegree = 130
	}
	if c.Quarters <= 0 {
		c.Quarters = 13
	}
	if c.OrganicRate <= 0 {
		c.OrganicRate = 0.02
	}
	return c
}

// Dataset is the generated corpus.
type Dataset struct {
	Graph  *graph.Digraph
	States []opinion.State
	Events []Event
	// Interest is the scaled search-interest series, one value per
	// quarter (the Google Trends stand-in).
	Interest []float64
	// QuarterLabels formats each quarter like the paper's x-axis
	// ("05'08-11'08", ...).
	QuarterLabels []string
	// Community is each user's camp (0 or 1).
	Community []int
}

// Truth returns per-transition anomaly labels: transition t
// (states[t] -> states[t+1]) is anomalous when an event lands on
// quarter t+1.
func (d *Dataset) Truth() []bool {
	out := make([]bool, len(d.States)-1)
	for _, e := range d.Events {
		if e.Quarter >= 1 && e.Quarter < len(d.States) {
			out[e.Quarter-1] = true
		}
	}
	return out
}

// DefaultEvents is the scripted 2008-2011 political timeline.
func DefaultEvents() []Event {
	return []Event{
		{Quarter: 2, Name: "presidential election", Polarized: false, Magnitude: 0.20},
		{Quarter: 4, Name: "inauguration + Economic Stimulus Bill", Polarized: true, Magnitude: 0.10},
		{Quarter: 6, Name: "Nobel Peace Prize", Polarized: false, Magnitude: 0.08},
		{Quarter: 8, Name: "Affordable Care Act (Obama Care)", Polarized: true, Magnitude: 0.12},
		{Quarter: 10, Name: "tax plan", Polarized: true, Magnitude: 0.06},
		{Quarter: 12, Name: "bin Laden raid", Polarized: false, Magnitude: 0.18},
	}
}

// Twitter generates the corpus with the default event timeline.
func Twitter(cfg Config) *Dataset { return TwitterWithEvents(cfg, DefaultEvents()) }

// TwitterWithEvents generates the corpus with a custom event timeline.
func TwitterWithEvents(cfg Config, events []Event) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.PlantedPartition(graph.PlantedPartitionConfig{
		N:           cfg.Users,
		K:           2,
		AvgInDeg:    cfg.AvgDegree,
		IntraFrac:   0.92,
		Reciprocity: 0.25,
		Seed:        cfg.Seed + 1,
	})
	n := g.N()
	community := make([]int, n)
	for u := range community {
		community[u] = graph.Community(u, n, 2)
	}
	rev := g.Reverse()

	eventAt := make(map[int]*Event, len(events))
	for i := range events {
		eventAt[events[i].Quarter] = &events[i]
	}

	// Initial state: a small politically-engaged seed, mildly aligned
	// with community.
	st := opinion.NewState(n)
	seeds := n / 20
	perm := rng.Perm(n)
	for _, u := range perm[:seeds] {
		st[u] = campOpinion(community[u], 0.97, rng)
	}
	states := []opinion.State{st.Clone()}
	interest := []float64{0.2}

	lastOrganicChanges := maxInt(n/100, 8)
	for q := 1; q < cfg.Quarters; q++ {
		next := st.Clone()
		level := 0.2 + 0.05*rng.Float64()
		ev, isEvent := eventAt[q]
		switch {
		case isEvent && ev.Polarized:
			// Pattern anomaly: the change volume is budgeted to the
			// organic trend (the polarized step *replaces* organic
			// churn), but the changes land at adverse-surrounded
			// boundary users, which only a propagation-aware
			// distance measure can see.
			budget := int(float64(lastOrganicChanges) * (1 + ev.Magnitude))
			polarizedStep(rev, st, next, community, budget, rng)
			level = 0.45 + 0.6*ev.Magnitude
		case isEvent:
			organicStep(g, rev, st, next, cfg.OrganicRate, rng)
			consensusStep(rev, st, next, community, ev.Magnitude, rng)
			level = 0.55 + 1.8*ev.Magnitude
		default:
			organicStep(g, rev, st, next, cfg.OrganicRate, rng)
			lastOrganicChanges = st.DiffCount(next)
		}
		st = next
		states = append(states, st.Clone())
		interest = append(interest, level)
	}

	labels := make([]string, cfg.Quarters)
	months := []string{"05", "08", "11", "02"}
	for q := range labels {
		startMonth := months[q%4]
		startYear := 8 + (q+1)/4
		endMonth := months[(q+2)%4]
		endYear := 8 + (q+3)/4
		labels[q] = fmt.Sprintf("%s'%02d-%s'%02d", startMonth, startYear, endMonth, endYear)
	}
	return &Dataset{
		Graph:         g,
		States:        states,
		Events:        events,
		Interest:      interest,
		QuarterLabels: labels,
		Community:     community,
	}
}

// organicStep activates a small fraction of neutral users by
// probabilistic voting over their active in-neighbors (falling back to
// camp alignment when a sampled user has none).
func organicStep(g *graph.Digraph, rev *graph.Digraph, prev, next opinion.State, rate float64, rng *rand.Rand) {
	for v := range prev {
		if prev[v] != opinion.Neutral || rng.Float64() >= rate {
			continue
		}
		pos, neg := 0, 0
		for _, u := range rev.Out(v) {
			switch prev[u] {
			case opinion.Positive:
				pos++
			case opinion.Negative:
				neg++
			}
		}
		if pos+neg == 0 {
			continue
		}
		if rng.Intn(pos+neg) < pos {
			next[v] = opinion.Positive
		} else {
			next[v] = opinion.Negative
		}
	}
}

// consensusStep activates a large batch of neutral users who adopt
// along their local exposure (neighborhood vote, camp fallback): a
// volume surge without a polarization pattern — everyone reacts, but
// in line with their surroundings.
func consensusStep(rev *graph.Digraph, prev, next opinion.State, community []int, magnitude float64, rng *rand.Rand) {
	for v := range prev {
		if prev[v] != opinion.Neutral || rng.Float64() >= magnitude {
			continue
		}
		pos, neg := 0, 0
		for _, u := range rev.Out(v) {
			switch prev[u] {
			case opinion.Positive:
				pos++
			case opinion.Negative:
				neg++
			}
		}
		switch {
		case pos+neg == 0:
			next[v] = campSign(community[v])
		case rng.Intn(pos+neg) < pos:
			next[v] = opinion.Positive
		default:
			next[v] = opinion.Negative
		}
	}
}

// polarizedStep applies exactly `budget` opinion changes (when enough
// candidates exist), all of the pattern-anomalous "minority voice"
// kind: neutral users with *no* active in-neighbors — locally quiet
// spots — activate against their community's camp (the opposition
// voices a controversy awakens inside the other camp's territory).
//
// Locally, each such activation looks exactly like an organic one
// (edges to neutral neighbors only; no contention with active
// neighbors), so quad-form and walk-dist see an ordinary quarter, and
// the budget keeps hamming flat. Globally, the activated opinion's
// mass must travel from its own camp's distant territory through
// neutral and adverse regions, which inflates SND's transport costs —
// the polarization signature only a propagation-aware measure detects.
func polarizedStep(rev *graph.Digraph, prev, next opinion.State, community []int,
	budget int, rng *rand.Rand,
) {
	var candidates []int
	for v := range prev {
		if prev[v] != opinion.Neutral {
			continue
		}
		assigned := campSign(community[v]).Opposite()
		supported := false
		for _, u := range rev.Out(v) {
			if prev[u] == assigned {
				supported = true
				break
			}
		}
		if !supported {
			candidates = append(candidates, v)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if budget > len(candidates) {
		budget = len(candidates)
	}
	for _, v := range candidates[:budget] {
		next[v] = campSign(community[v]).Opposite()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func exposure(rev *graph.Digraph, st opinion.State, v int, camp opinion.Opinion) (adverse, friendly int) {
	for _, u := range rev.Out(v) {
		switch st[u] {
		case camp:
			friendly++
		case camp.Opposite():
			adverse++
		}
	}
	return adverse, friendly
}

func campSign(c int) opinion.Opinion {
	if c == 0 {
		return opinion.Positive
	}
	return opinion.Negative
}

func campOpinion(c int, alignProb float64, rng *rand.Rand) opinion.Opinion {
	op := campSign(c)
	if rng.Float64() < alignProb {
		return op
	}
	return op.Opposite()
}
