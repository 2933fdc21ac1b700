package graph

import (
	"errors"
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	src := `
# a comment
node 0 seattle
node 2 denver
edge 0 1
1 2
edge 0 2 2.5
`
	g, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Label(0) != "seattle" || g.Label(1) != "1" || g.Label(2) != "denver" {
		t.Fatalf("labels wrong: %q %q %q", g.Label(0), g.Label(1), g.Label(2))
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("missing weighted edge")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"bad id", "edge x 1"},
		{"negative id", "edge -1 2"},
		{"too many fields", "0 1 2 3"},
		{"bad weight", "edge 0 1 heavy"},
		{"node without label", "node 3"},
		{"bad node id", "node x foo"},
		{"self loop", "edge 1 1"},
		{"parallel", "edge 0 1\nedge 1 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.src)); err == nil {
				t.Fatalf("Parse(%q) should fail", c.src)
			}
		})
	}
}

func TestParseEmptyIsErrEmptyGraph(t *testing.T) {
	_, err := Parse(strings.NewReader("# only comments\n"))
	if !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("got %v, want ErrEmptyGraph", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g := New(4)
	g.SetLabel(1, "pop one")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddWeightedEdge(0, 2, 3.5); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed shape")
	}
	if g2.Label(1) != "pop one" {
		t.Fatal("round trip lost label")
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

func TestDOT(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("g")
	for _, want := range []string{"graph \"g\"", "0 -- 1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestParseNodesDirective(t *testing.T) {
	g, err := Parse(strings.NewReader("nodes 5\nedge 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
	for _, bad := range []string{"nodes\n", "nodes x\n", "nodes 0\n", "nodes -3\n"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestWritePreservesIsolatedNodes(t *testing.T) {
	g := New(1)
	var buf strings.Builder
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if g2.NumNodes() != 1 {
		t.Fatalf("round trip nodes = %d, want 1", g2.NumNodes())
	}
}

// TestWriteAndDOTUnlabelled pins both writers' output for a graph whose
// labels were never set: every node reads as its decimal ID, so Write
// emits no node records and DOT labels each node with its ID.
func TestWriteAndDOTUnlabelled(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(1, 2, 2.5); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# 3 nodes, 2 edges\nnodes 3\nedge 0 1\nedge 1 2 2.5\n"; buf.String() != want {
		t.Fatalf("Write:\n%q\nwant\n%q", buf.String(), want)
	}
	want := "graph \"g\" {\n  0 [label=\"0\"];\n  1 [label=\"1\"];\n  2 [label=\"2\"];\n  0 -- 1;\n  1 -- 2;\n}\n"
	if got := g.DOT("g"); got != want {
		t.Fatalf("DOT:\n%q\nwant\n%q", got, want)
	}
}

// TestParseWriteRoundTripText pins the text a parsed graph writes back:
// node records for labels other than the decimal ID, in node order, then
// the edges sorted.
func TestParseWriteRoundTripText(t *testing.T) {
	src := "node 3 denver\nnode 1 1\nedge 2 3\nedge 0 1 2.5\nnode 0 seattle wa\n"
	g, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# 4 nodes, 2 edges\nnodes 4\nnode 0 seattle wa\nnode 3 denver\nedge 0 1 2.5\nedge 2 3\n"
	if buf.String() != want {
		t.Fatalf("Write after Parse:\n%q\nwant\n%q", buf.String(), want)
	}
}
