package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// binary-heap Dijkstra builds: the same Dist and the same Parent.
func checkBFSMatchesHeap(t testing.TB, g *Graph) {
	t.Helper()
	if g.weighted {
		t.Fatal("unit-weight graph marked weighted: Dijkstra would not take the BFS path")
	}
	for src := 0; src < g.NumNodes(); src++ {
		got, want := g.Dijkstra(src), g.dijkstraHeap(src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source %d:\nBFS  dist %v parent %v\nheap dist %v parent %v",
				src, got.Dist, got.Parent, want.Dist, want.Parent)
		}
	}
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
				if got := g.Dijkstra(0).Dist; !reflect.DeepEqual(got, c.dist0) {
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
		if sp.Dist[3] != 1.5 {
			t.Fatalf("%s: Dist[3] = %v, want 1.5", name, sp.Dist[3])
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
	if sp.Dist[1] != 2 {
		t.Fatalf("Dist[1] = %v, want 2", sp.Dist[1])
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
