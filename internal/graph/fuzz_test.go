package graph

import (
	"strings"
	"testing"
)

// FuzzParse checks that the edge-list parser never panics and that
// anything it accepts round-trips through Write and parses back to the
// same shape.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"edge 0 1\n",
		"0 1\n1 2\n",
		"node 0 seattle\nedge 0 1\n",
		"edge 0 1 2.5\n",
		"edge 0 0\n",
		"edge 0 1\nedge 1 0\n",
		"node x y\n",
		"edge a b\n",
		"0 1 2 3 4\n",
		"edge 0 99999999\n",
		"edge -1 2\n",
		"edge 0 1 NaN\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted graphs must satisfy basic invariants.
		if g.NumNodes() <= 0 {
			t.Fatalf("accepted graph with %d nodes", g.NumNodes())
		}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatal("accepted self loop")
			}
			if e.Weight <= 0 {
				t.Fatalf("accepted non-positive weight %v", e.Weight)
			}
		}
		// Round trip must preserve shape.
		var buf strings.Builder
		if err := g.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		g2, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d → %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

// FuzzShortestPathTree builds a unit-weight graph from the input (the
// first byte sets the node count, each later byte pair is an edge) and
// checks that the breadth-first Dijkstra returns the binary-heap tree
// from every source.
func FuzzShortestPathTree(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 1, 3, 2, 3})       // diamond
	f.Add([]byte{5, 0, 1, 1, 2, 3, 4})             // two components
	f.Add([]byte{6, 0, 3, 0, 4, 0, 5, 1, 3, 1, 4}) // bipartite ties
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var edges [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		checkBFSMatchesHeap(t, unitGraph(t, n, edges))
	})
}

// FuzzReroute builds a graph and a revision of it from the input and
// checks Reroute from every source against a fresh Dijkstra on the
// revision (see checkReroute). The first byte sets the node count, the
// second picks weights (bit 0 weighs the revision, bit 1 the original),
// and each later byte triple is an edge with its fate: in the original
// only (removed), in the revision only (added), or in both.
func FuzzReroute(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 1, 2, 2})                                  // nothing changes
	f.Add([]byte{4, 0, 0, 1, 2, 1, 2, 2, 2, 3, 2, 0, 3, 1})                // a shortcut moves distances
	f.Add([]byte{4, 0, 0, 1, 2, 0, 2, 2, 1, 3, 2, 2, 3, 1})                // a tie moves one parent
	f.Add([]byte{5, 0, 0, 1, 2, 1, 2, 0, 2, 3, 2, 3, 4, 2, 4, 0, 2})       // a cycle loses a link
	f.Add([]byte{4, 0, 0, 1, 2, 1, 2, 0, 2, 3, 2})                         // a bridge goes: disconnected
	f.Add([]byte{6, 0, 0, 1, 2, 1, 2, 2, 3, 4, 2, 4, 5, 2, 2, 3, 1})       // components join
	f.Add([]byte{6, 0, 0, 1, 2, 2, 3, 2, 4, 5, 2, 3, 4, 1, 4, 5, 1})       // an edge between unreachable nodes
	f.Add([]byte{6, 0, 0, 1, 0, 0, 2, 1, 1, 3, 0, 2, 3, 1, 3, 4, 2, 4, 5}) // many links swap
	f.Add([]byte{4, 1, 0, 1, 2, 1, 2, 2, 2, 3, 2})                         // weighted revision
	f.Add([]byte{4, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2})                         // weighted original
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%48
		var before, after [][2]int
		for i := 2; i+2 < len(data); i += 3 {
			e := [2]int{int(data[i]) % n, int(data[i+1]) % n}
			switch data[i+2] % 3 {
			case 0:
				before = append(before, e)
			case 1:
				after = append(after, e)
			default:
				before, after = append(before, e), append(after, e)
			}
		}
		checkReroute(t, weighGraph(t, n, before, data[1]&2 != 0), weighGraph(t, n, after, data[1]&1 != 0))
	})
}
