// Package opinion defines polar network states and the opinion-dynamics
// cost models that turn a (network, state, opinion) triple into the
// integer edge costs of the SND ground distance (paper eq. 2).
//
// A network state assigns each user one of three opinions: positive
// (+1), negative (-1), or neutral (0). The ground distance for
// propagating opinion op through state G is the shortest-path metric of
// the network under the extended adjacency costs
//
//	Aext(G, op) = -log P - log Pin - log Pout        (eq. 2)
//
// where P is the communication probability (defaulting to the
// connectivity matrix: cost CommCost per edge), Pin the adoption
// probability (defaulting to 1: cost 0), and Pout the model-dependent
// spreading probability. Per the paper's Assumption 2, all costs are
// quantized to positive integers bounded by a constant U, which is what
// enables the Dial/radix Dijkstra variants and the integer min-cost
// flow solvers downstream.
package opinion

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Opinion is a single user's polar opinion.
type Opinion int8

const (
	// Negative is the "-" opinion.
	Negative Opinion = -1
	// Neutral marks users with no (or unknown) opinion.
	Neutral Opinion = 0
	// Positive is the "+" opinion.
	Positive Opinion = 1
)

// Opposite returns the competing opinion (-op); Neutral maps to itself.
func (o Opinion) Opposite() Opinion { return -o }

// String returns "+", "-", or "0".
func (o Opinion) String() string {
	switch o {
	case Positive:
		return "+"
	case Negative:
		return "-"
	default:
		return "0"
	}
}

// Valid reports whether o is one of the three defined opinions.
func (o Opinion) Valid() bool { return o >= Negative && o <= Positive }

// State is a network state: the opinions of all users at one instant.
type State []Opinion

// NewState returns an all-neutral state for n users.
func NewState(n int) State { return make(State, n) }

// Clone returns a deep copy of the state.
func (s State) Clone() State { return append(State(nil), s...) }

// Count returns the number of users holding opinion op.
func (s State) Count(op Opinion) int {
	c := 0
	for _, o := range s {
		if o == op {
			c++
		}
	}
	return c
}

// ActiveCount returns the number of non-neutral users.
func (s State) ActiveCount() int { return len(s) - s.Count(Neutral) }

// Active returns the indices of non-neutral users.
func (s State) Active() []int {
	out := make([]int, 0, s.ActiveCount())
	for i, o := range s {
		if o != Neutral {
			out = append(out, i)
		}
	}
	return out
}

// Histogram returns the opinion histogram for op: mass 1 at every user
// holding op, 0 elsewhere. These are the G+ / G- histograms of the SND
// definition (users of the competing opinion count as neutral).
func (s State) Histogram(op Opinion) []float64 {
	h := make([]float64, len(s))
	for i, o := range s {
		if o == op {
			h[i] = 1
		}
	}
	return h
}

// DiffCount returns n-delta: the number of users whose opinion differs
// between s and t. It panics on length mismatch.
func (s State) DiffCount(t State) int {
	if len(s) != len(t) {
		panic("opinion: state length mismatch")
	}
	d := 0
	for i := range s {
		if s[i] != t[i] {
			d++
		}
	}
	return d
}

// Float returns the state as a +1/0/-1 float vector (for the baseline
// coordinate-wise distance measures).
func (s State) Float() []float64 {
	v := make([]float64, len(s))
	for i, o := range s {
		v[i] = float64(o)
	}
	return v
}

// Encode writes the state as "n" followed by one signed value per line.
func (s State) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", len(s)); err != nil {
		return err
	}
	for _, o := range s {
		if _, err := fmt.Fprintf(bw, "%d\n", int(o)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeState parses the format written by Encode. Blank lines and
// '#'-comments are ignored.
func DecodeState(r io.Reader) (State, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var st State
	size := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("opinion: malformed line %q", line)
		}
		if size < 0 {
			if v < 0 {
				return nil, fmt.Errorf("opinion: negative state size %d", v)
			}
			// The state grows as values arrive: the header alone never
			// sizes an allocation.
			size = v
			st = make(State, 0, min(size, 1<<16))
			continue
		}
		if len(st) == size {
			return nil, fmt.Errorf("opinion: more values than declared size %d", size)
		}
		if v < int(Negative) || v > int(Positive) {
			return nil, fmt.Errorf("opinion: invalid opinion %d at user %d", v, len(st))
		}
		st = append(st, Opinion(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("opinion: read: %v", err)
	}
	if size < 0 {
		return nil, fmt.Errorf("opinion: empty input")
	}
	if len(st) != size {
		return nil, fmt.Errorf("opinion: declared %d users, found %d", size, len(st))
	}
	return st, nil
}
