package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Encode serializes g in a plain edge-list format:
//
//	n m
//	u v        (one line per directed edge, CSR order)
//
// The format round-trips through Decode including isolated nodes.
func (g *Digraph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var failed error
	g.Edges(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			failed = err
			return false
		}
		return true
	})
	if failed != nil {
		return failed
	}
	return bw.Flush()
}

// Decode parses the edge-list format written by Encode. Blank lines
// and lines starting with '#' are ignored. Untrusted input gets an
// error, never a panic: the header's counts must be non-negative and
// fit the int32 CSR, every endpoint must lie in [0, n), and the edge
// lines must number exactly what the header declares. Decode still
// allocates the n+1 CSR offsets the header asks for, so a caller that
// takes edge lists from strangers bounds n before handing them over.
func Decode(r io.Reader) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var b *Builder
	want, got := 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		u, v, err := parsePair(line)
		if err != nil {
			return nil, fmt.Errorf("graph: %v", err)
		}
		if b == nil {
			if u < 0 || v < 0 || u > math.MaxInt32 || v > math.MaxInt32 {
				return nil, fmt.Errorf("graph: header declares %d nodes and %d edges, want each in [0, %d]", u, v, math.MaxInt32)
			}
			b = NewBuilder(u)
			want = v
			continue
		}
		if u < 0 || u >= b.n || v < 0 || v >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		}
		if got == want {
			return nil, fmt.Errorf("graph: header declared %d edges, found more", want)
		}
		b.AddEdge(u, v)
		got++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if got != want {
		return nil, fmt.Errorf("graph: header declared %d edges, found %d", want, got)
	}
	return b.Build(), nil
}

func parsePair(line string) (int, int, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("malformed line %q", line)
	}
	a, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, 0, fmt.Errorf("malformed int %q", fields[0])
	}
	b, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, 0, fmt.Errorf("malformed int %q", fields[1])
	}
	return a, b, nil
}
