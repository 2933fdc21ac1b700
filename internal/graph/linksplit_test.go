package graph

import (
	"strings"
	"testing"
)

func TestSplitLinksShape(t *testing.T) {
	g := pathGraph(t, 3) // 0-1-2
	split, linkNodes := g.SplitLinks()
	if split.NumNodes() != 5 { // 3 nodes + 2 link nodes
		t.Fatalf("nodes = %d, want 5", split.NumNodes())
	}
	if split.NumEdges() != 4 { // 2 per original edge
		t.Fatalf("edges = %d, want 4", split.NumEdges())
	}
	if len(linkNodes) != 2 {
		t.Fatalf("linkNodes = %v", linkNodes)
	}
	// Original adjacency is gone; links are relayed through link nodes.
	if split.HasEdge(0, 1) {
		t.Fatal("original edge should be removed")
	}
	edges := g.Edges()
	for i, e := range edges {
		l := linkNodes[i]
		if !split.HasEdge(e.U, l) || !split.HasEdge(l, e.V) {
			t.Fatalf("link node %d not wired to (%d, %d)", l, e.U, e.V)
		}
		if split.Degree(l) != 2 {
			t.Fatalf("link node degree = %d, want 2", split.Degree(l))
		}
		if !strings.HasPrefix(split.Label(l), "link(") {
			t.Fatalf("link label = %q", split.Label(l))
		}
	}
	if !split.Connected() {
		t.Fatal("split graph must stay connected")
	}
}

func TestSplitLinksPreservesShortestPathStructure(t *testing.T) {
	g := pathGraph(t, 4)
	split, _ := g.SplitLinks()
	spOrig := g.Dijkstra(0)
	spSplit := split.Dijkstra(0)
	for v := 0; v < g.NumNodes(); v++ {
		// Half-weight per sub-edge ⇒ identical distances between
		// original nodes.
		if spOrig.Dist(v) != spSplit.Dist(v) {
			t.Fatalf("distance to %d changed: %v → %v", v, spOrig.Dist(v), spSplit.Dist(v))
		}
	}
}

func TestSplitLinksPreservesLabels(t *testing.T) {
	g := pathGraph(t, 2)
	g.SetLabel(0, "seattle")
	split, _ := g.SplitLinks()
	if split.Label(0) != "seattle" {
		t.Fatal("original labels must be preserved")
	}
	if split.Label(2) != "link(seattle-1)" {
		t.Fatalf("link label = %q", split.Label(2))
	}
}

func TestSplitLinksEmptyAndEdgeless(t *testing.T) {
	split, links := New(3).SplitLinks()
	if split.NumNodes() != 3 || split.NumEdges() != 0 || len(links) != 0 {
		t.Fatal("edgeless graph should split to itself")
	}
}
