package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzMaxNodes bounds the node count a fuzzed header may declare:
// Decode allocates the CSR offsets the header asks for, and the fuzz
// workers share the machine's memory. It is the harness's bound, not a
// format rule; TestReadFromErrors covers larger headers.
const fuzzMaxNodes = 1 << 20

// FuzzDecodeGraph feeds Decode arbitrary bytes. It must never panic,
// and a graph it accepts must round-trip through Encode and Decode to
// the same node count, edge count and edges. Seeds (testdata/fuzz)
// hold the inputs that once panicked or exhausted memory, a clean
// graph, a comment-laden one and one with isolated nodes.
func FuzzDecodeGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, ok := declaredNodes(data); ok && n > fuzzMaxNodes {
			t.Skip("header declares more nodes than the fuzz memory bound")
		}
		g, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decoding the encoded graph: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip gave %d nodes and %d edges, want %d and %d", h.N(), h.M(), g.N(), g.M())
		}
		if !reflect.DeepEqual(edgeList(h), edgeList(g)) {
			t.Fatal("round trip changed the edges")
		}
	})
}

// declaredNodes reads the node count off data's header line, as Decode
// finds it; ok is false when there is no parseable header.
func declaredNodes(data []byte) (n int, ok bool) {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, _, err := parsePair(line)
		return n, err == nil
	}
	return 0, false
}

// edgeList returns g's edges in CSR order.
func edgeList(g *Digraph) [][2]int32 {
	var out [][2]int32
	g.Edges(func(u, v int32) bool {
		out = append(out, [2]int32{u, v})
		return true
	})
	return out
}
