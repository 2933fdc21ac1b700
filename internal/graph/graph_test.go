package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// pathGraph returns 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewGraph(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Label(0) != "0" || g.Label(2) != "2" {
		t.Fatal("default labels should be decimal IDs")
	}
}

// TestLabels pins the label defaults: a node reads as its decimal ID
// until SetLabel sets a label, and a set label reads back as set, an
// empty one included, through Label, Clone and SplitLinks.
func TestLabels(t *testing.T) {
	g := New(12)
	for v := 0; v < g.NumNodes(); v++ {
		if got := g.Label(v); got != strconv.Itoa(v) {
			t.Fatalf("Label(%d) = %q, want the decimal ID", v, got)
		}
	}
	g.SetLabel(3, "")
	g.SetLabel(11, "eleven")
	if err := g.AddEdge(3, 11); err != nil {
		t.Fatal(err)
	}
	split, links := g.SplitLinks()
	for _, h := range []*Graph{g, g.Clone(), split} {
		if h.Label(3) != "" || h.Label(11) != "eleven" || h.Label(10) != "10" {
			t.Fatalf("labels 3, 10, 11 read %q, %q, %q", h.Label(3), h.Label(10), h.Label(11))
		}
	}
	if got := split.Label(links[0]); got != "link(-eleven)" {
		t.Fatalf("link label = %q", got)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if err := g.AddEdge(0, 3); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("range: %v", err)
	}
	if err := g.AddEdge(-1, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("range: %v", err)
	}
	if err := g.AddWeightedEdge(0, 1, 0); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("weight: %v", err)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrParallelEdge) {
		t.Fatalf("parallel: %v", err)
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := pathGraph(t, 4)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("no such edge")
	}
	if g.HasEdge(0, 99) || g.HasEdge(-1, 0) {
		t.Fatal("out of range HasEdge must be false")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	for _, v := range []int{4, 2, 3} {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("Neighbors = %v", got)
	}
}

func TestDanglingNodes(t *testing.T) {
	// Star: center 0, leaves 1..4 → 4 dangling.
	g := New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.DanglingNodes(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("DanglingNodes = %v", got)
	}
}

// unitGraph builds an n-node graph from unit-weight edges, skipping self
// loops and repeats so random edge lists can be fed in as they come.
func unitGraph(t testing.TB, n int, edges [][2]int) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if e[0] == e[1] || g.HasEdge(e[0], e[1]) {
			continue
		}
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// checkBFSMatchesHeap requires that Dijkstra on a unit-weight graph takes
// the breadth-first path and returns, from every source, the tree the
// binary-heap Dijkstra builds: the same Source, and at every node the
// same distance and the same parent. The two trees store distances in
// different layouts (hop counts against float64), so they are compared
// through the accessors.
func checkBFSMatchesHeap(t testing.TB, g *Graph) {
	t.Helper()
	if g.weighted {
		t.Fatal("unit-weight graph marked weighted: Dijkstra would not take the BFS path")
	}
	for src := 0; src < g.NumNodes(); src++ {
		got, want := g.Dijkstra(src), g.dijkstraHeap(src)
		if got.hops == nil {
			t.Fatalf("source %d: unit-weight tree without hop counts", src)
		}
		if got.Source != want.Source {
			t.Fatalf("source %d: BFS tree rooted at %d, heap tree at %d", src, got.Source, want.Source)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if got.Dist(v) != want.Dist(v) || got.Parent(v) != want.Parent(v) {
				t.Fatalf("source %d, node %d: BFS dist %v parent %d, heap dist %v parent %d",
					src, v, got.Dist(v), got.Parent(v), want.Dist(v), want.Parent(v))
			}
		}
	}
}

// dists returns every node's distance in t, in node order.
func dists(t *ShortestPathTree, n int) []float64 {
	out := make([]float64, n)
	for v := range out {
		out[v] = t.Dist(v)
	}
	return out
}

func TestShortestPathTreeBFSMatchesHeap(t *testing.T) {
	type tc struct {
		name  string
		n     int
		edges [][2]int
		// dist0, when set, is the expected Dist vector from source 0.
		dist0 []float64
	}
	cases := []tc{
		{name: "path", n: 5, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
			dist0: []float64{0, 1, 2, 3, 4}},
		{name: "unreachable", n: 3, edges: [][2]int{{0, 1}},
			dist0: []float64{0, 1, -1}},
		{name: "diamond", n: 4, edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			dist0: []float64{0, 1, 1, 2}},
		{name: "single", n: 1},
	}
	// A 6×7 grid: every interior pair has many equal-length routes.
	grid := tc{name: "grid", n: 42}
	for r := 0; r < 6; r++ {
		for c := 0; c < 7; c++ {
			v := r*7 + c
			if c+1 < 7 {
				grid.edges = append(grid.edges, [2]int{v, v + 1})
			}
			if r+1 < 6 {
				grid.edges = append(grid.edges, [2]int{v + 7, v})
			}
		}
	}
	// K(4,5) with interleaved sides: every two-hop pair ties four or five ways.
	bip := tc{name: "bipartite", n: 9}
	for u := 0; u < 9; u += 2 {
		for v := 1; v < 9; v += 2 {
			bip.edges = append(bip.edges, [2]int{v, u})
		}
	}
	cases = append(cases, grid, bip)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		c := tc{name: fmt.Sprintf("random%d", trial), n: n}
		// Odd trials add a spanning chain; even ones are left to chance
		// and are often disconnected.
		if trial%2 == 1 {
			for i := 1; i < n; i++ {
				c.edges = append(c.edges, [2]int{rng.Intn(i), i})
			}
		}
		for m := rng.Intn(2*n + 1); m > 0; m-- {
			c.edges = append(c.edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := unitGraph(t, c.n, c.edges)
			checkBFSMatchesHeap(t, g)
			if c.dist0 != nil {
				if got := dists(g.Dijkstra(0), c.n); !reflect.DeepEqual(got, c.dist0) {
					t.Fatalf("Dist from 0 = %v, want %v", got, c.dist0)
				}
			}
		})
	}
}

func TestDijkstraNonUnitEdgeTakesHeapPath(t *testing.T) {
	// The diamond with one half-weight edge, as SplitLinks makes: by hop
	// count 0→3 ties and goes through 1, by weight it goes through 2.
	g := New(4)
	for _, e := range []Edge{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 0.5}} {
		if err := g.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range map[string]*Graph{"graph": g, "clone": g.Clone()} {
		sp := h.Dijkstra(0)
		if sp.Dist(3) != 1.5 {
			t.Fatalf("%s: Dist(3) = %v, want 1.5", name, sp.Dist(3))
		}
		if got := sp.PathTo(3); !reflect.DeepEqual(got, []int{0, 2, 3}) {
			t.Fatalf("%s: PathTo(3) = %v, want [0 2 3]", name, got)
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// 0-1 (w5), 0-2 (w1), 2-1 (w1): shortest 0→1 is via 2 with cost 2.
	g := New(3)
	if err := g.AddWeightedEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	sp := g.Dijkstra(0)
	if sp.Dist(1) != 2 {
		t.Fatalf("Dist(1) = %v, want 2", sp.Dist(1))
	}
	if got := sp.PathTo(1); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("PathTo(1) = %v", got)
	}
}

func TestDijkstraDeterministicTieBreak(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. Two shortest paths 0→3; the tie-break
	// must always choose predecessor 1 (the smaller ID).
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 10; trial++ {
		sp := g.Dijkstra(0)
		if got := sp.PathTo(3); !reflect.DeepEqual(got, []int{0, 1, 3}) {
			t.Fatalf("PathTo(3) = %v, want [0 1 3]", got)
		}
	}
}

func TestPathToSelfAndUnreachable(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	sp := g.Dijkstra(0)
	if got := sp.PathTo(0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("PathTo(self) = %v", got)
	}
	if got := sp.PathTo(2); got != nil {
		t.Fatalf("PathTo(unreachable) = %v, want nil", got)
	}
	if got := sp.PathTo(99); got != nil {
		t.Fatalf("PathTo(out of range) = %v, want nil", got)
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	comps := g.Components()
	want := [][]int{{0, 1}, {2}, {3, 4}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v, want %v", comps, want)
	}
	if g.Connected() {
		t.Fatal("graph should not be connected")
	}
}

func TestValidate(t *testing.T) {
	if err := New(0).Validate(); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
	if err := New(2).Validate(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("disconnected: %v", err)
	}
	g := pathGraph(t, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("connected path: %v", err)
	}
}

func TestConnectedEmptyGraph(t *testing.T) {
	if New(0).Connected() {
		t.Fatal("empty graph is not connected")
	}
	if !New(1).Connected() {
		t.Fatal("single node is connected")
	}
}

func TestClone(t *testing.T) {
	g := pathGraph(t, 4)
	g.SetLabel(2, "middle")
	c := g.Clone()
	if c.NumNodes() != 4 || c.NumEdges() != 3 {
		t.Fatal("clone shape wrong")
	}
	if c.Label(2) != "middle" {
		t.Fatal("clone should copy labels")
	}
	if err := c.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 3) {
		t.Fatal("clone must not alias")
	}
}

func TestEdgesCopy(t *testing.T) {
	g := pathGraph(t, 3)
	es := g.Edges()
	es[0].U = 99
	if g.Edges()[0].U == 99 {
		t.Fatal("Edges must return a copy")
	}
}

func TestDegreePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Degree(5)
}

func TestAddEdgeRejectsNaNAndInf(t *testing.T) {
	g := New(3)
	if err := g.AddWeightedEdge(0, 1, math.NaN()); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("NaN weight: %v", err)
	}
	if err := g.AddWeightedEdge(0, 1, math.Inf(1)); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("+Inf weight: %v", err)
	}
	if err := g.AddWeightedEdge(0, 1, math.Inf(-1)); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("-Inf weight: %v", err)
	}
}

func TestParseRejectsHugeNodeID(t *testing.T) {
	if _, err := Parse(strings.NewReader("edge 0 99999999\n")); err == nil {
		t.Fatal("huge node id should be rejected")
	}
	if _, err := Parse(strings.NewReader("node 99999999 far\n")); err == nil {
		t.Fatal("huge node record should be rejected")
	}
}

// weighGraph is unitGraph, with every edge at weight 2 when weighted: the
// same routes, through the binary-heap Dijkstra.
func weighGraph(t testing.TB, n int, edges [][2]int, weighted bool) *Graph {
	t.Helper()
	g := unitGraph(t, n, edges)
	if !weighted {
		return g
	}
	w := New(n)
	for _, e := range g.Edges() {
		if err := w.AddWeightedEdge(e.U, e.V, 2); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// sameTree reports whether two trees have the same source and, at every
// node, the same distance and parent.
func sameTree(a, b *ShortestPathTree, n int) bool {
	if a.Source != b.Source {
		return false
	}
	for v := 0; v < n; v++ {
		if a.Dist(v) != b.Dist(v) || a.Parent(v) != b.Parent(v) {
			return false
		}
	}
	return true
}

// checkReroute reroutes prev's tree from every source across the diff to
// g and requires the tree a fresh Dijkstra builds on g. Reroute must
// return prev's tree itself exactly when that tree is unchanged, a tree
// that shares its hop counts when only parents moved, and a new tree
// whenever either graph is weighted.
func checkReroute(t testing.TB, prev, g *Graph) {
	t.Helper()
	removed, added := g.Diff(prev)
	n := g.NumNodes()
	for src := 0; src < n; src++ {
		old, want := prev.Dijkstra(src), g.Dijkstra(src)
		got := g.Reroute(old, removed, added)
		if !sameTree(got, want, n) {
			t.Fatalf("source %d, removed %v, added %v: rerouted tree differs from a fresh one", src, removed, added)
		}
		if prev.weighted || g.weighted {
			if got == old {
				t.Fatalf("source %d: a weighted revision reused the old tree", src)
			}
			continue
		}
		if unchanged := sameTree(old, want, n); (got == old) != unchanged {
			t.Fatalf("source %d, removed %v, added %v: returned the old tree %t, tree unchanged %t",
				src, removed, added, got == old, unchanged)
		}
		if got != old && sameDists(old, want, n) && &got.hops[0] != &old.hops[0] {
			t.Fatalf("source %d: only parents moved, but the hop counts were rebuilt", src)
		}
	}
}

// sameDists reports whether two trees have the same distance at every
// node.
func sameDists(a, b *ShortestPathTree, n int) bool {
	for v := 0; v < n; v++ {
		if a.Dist(v) != b.Dist(v) {
			return false
		}
	}
	return true
}

// TestReroute checks Reroute on random graphs, some disconnected, across
// revisions that change nothing, one link, several links, a tenth of all
// links, and a removal that disconnects the graph.
func TestReroute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		var edges [][2]int
		for i := rng.Intn(3 * n); i >= 0; i-- {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		prev := unitGraph(t, n, edges)
		all := prev.Edges()
		for _, changes := range []int{0, 1, 3, 1 + len(all)/10} {
			next := append([][2]int(nil), edges...)
			for c := 0; c < changes; c++ {
				if rng.Intn(2) == 0 && len(next) > 0 {
					i := rng.Intn(len(next))
					next = append(next[:i:i], next[i+1:]...)
				} else {
					next = append(next, [2]int{rng.Intn(n), rng.Intn(n)})
				}
			}
			checkReroute(t, prev, unitGraph(t, n, next))
		}
	}
	// A path loses its middle link: everything past it becomes
	// unreachable, and back.
	line := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	cut := [][2]int{{0, 1}, {2, 3}, {3, 4}}
	checkReroute(t, unitGraph(t, 5, line), unitGraph(t, 5, cut))
	checkReroute(t, unitGraph(t, 5, cut), unitGraph(t, 5, line))
}

// checkMaxHops requires MaxHops to return, for every set, the fold of one
// Dijkstra per source: at each node the largest hop count, −1 where some
// source misses the node, and 0 everywhere for an empty set.
func checkMaxHops(t testing.TB, g *Graph, sets [][]NodeID) {
	t.Helper()
	got := g.MaxHops(sets)
	if len(got) != len(sets) {
		t.Fatalf("%d results for %d sets", len(got), len(sets))
	}
	for i, set := range sets {
		want := make([]int32, g.NumNodes())
		for _, s := range set {
			tree := g.Dijkstra(s)
			for v := range want {
				switch d := int32(tree.Dist(v)); {
				case want[v] < 0 || d < 0:
					want[v] = -1
				case d > want[v]:
					want[v] = d
				}
			}
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("set %d %v: MaxHops %v, per-source Dijkstra %v", i, set, got[i], want)
		}
	}
}

// TestMaxHops checks MaxHops on random graphs, some disconnected, with
// random source sets: up to 150 sources, so sets straddle the 64-source
// batches, repeated within and across sets, and an empty set.
func TestMaxHops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		var edges [][2]int
		for i := rng.Intn(3 * n); i >= 0; i-- {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		sets := make([][]NodeID, 1+rng.Intn(12))
		for i := range sets {
			for j := rng.Intn(25); j > 0; j-- {
				sets[i] = append(sets[i], rng.Intn(n))
			}
		}
		checkMaxHops(t, unitGraph(t, n, edges), sets)
	}
}
