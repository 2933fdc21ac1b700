package routing

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

func lineRouter(t *testing.T, n int) *Router {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewEmptyGraph(t *testing.T) {
	if _, err := New(graph.New(0)); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("got %v, want ErrEmptyGraph", err)
	}
}

func TestDistance(t *testing.T) {
	r := lineRouter(t, 5)
	if d := r.Distance(0, 4); d != 4 {
		t.Fatalf("Distance(0,4) = %v, want 4", d)
	}
	if d := r.Distance(2, 2); d != 0 {
		t.Fatalf("Distance(2,2) = %v, want 0", d)
	}
}

func TestDistanceUnreachable(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	r, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Distance(0, 2); d != -1 {
		t.Fatalf("Distance = %v, want -1", d)
	}
	if p := r.PathNodes(0, 2); p != nil {
		t.Fatalf("PathNodes = %v, want nil", p)
	}
	if _, err := r.Path(0, 2); err == nil {
		t.Fatal("Path should error for unreachable pair")
	}
}

func TestPathNodesEndpoints(t *testing.T) {
	r := lineRouter(t, 4)
	got := r.PathNodes(0, 3)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2, 3}) {
		t.Fatalf("PathNodes = %v", got)
	}
	// Degenerate path: client co-located with host (footnote 3 in paper).
	if got := r.PathNodes(2, 2); !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("degenerate path = %v", got)
	}
}

func TestPathBitset(t *testing.T) {
	r := lineRouter(t, 4)
	p, err := r.Path(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Indices(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Path = %v", got)
	}
	if p.Cap() != 4 {
		t.Fatalf("path universe = %d, want 4", p.Cap())
	}
}

func TestPathSymmetricNodes(t *testing.T) {
	// For an undirected graph with deterministic tie-breaks, the node SET of
	// p(c,h) equals that of p(h,c) even if direction differs.
	topo := topology.MustBuild(topology.Abovenet)
	r, err := New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Graph.NumNodes()
	for c := 0; c < n; c += 3 {
		for h := 0; h < n; h += 5 {
			d1, d2 := r.Distance(c, h), r.Distance(h, c)
			if d1 != d2 {
				t.Fatalf("asymmetric distance %v vs %v", d1, d2)
			}
		}
	}
}

func TestPathSet(t *testing.T) {
	r := lineRouter(t, 5)
	ps, err := r.PathSet([]graph.NodeID{0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("|P| = %d", len(ps))
	}
	if got := ps[0].Indices(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("p(0,2) = %v", got)
	}
	if got := ps[1].Indices(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("p(4,2) = %v", got)
	}
}

func TestPathSetDuplicateClient(t *testing.T) {
	r := lineRouter(t, 5)
	if _, err := r.PathSet([]graph.NodeID{1, 1}, 2); err == nil {
		t.Fatal("duplicate client should error")
	}
}

func TestPathsConsistentWithDistance(t *testing.T) {
	topo := topology.MustBuild(topology.Tiscali)
	r, err := New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Graph.NumNodes()
	for c := 0; c < n; c += 7 {
		for h := 0; h < n; h += 11 {
			nodes := r.PathNodes(c, h)
			if nodes == nil {
				t.Fatalf("no path %d→%d in connected graph", c, h)
			}
			if float64(len(nodes)-1) != r.Distance(c, h) {
				t.Fatalf("path length %d disagrees with distance %v", len(nodes)-1, r.Distance(c, h))
			}
			// Consecutive nodes must be adjacent; endpoints must match.
			if nodes[0] != c || nodes[len(nodes)-1] != h {
				t.Fatalf("endpoints wrong: %v for (%d,%d)", nodes, c, h)
			}
			for i := 1; i < len(nodes); i++ {
				if !topo.Graph.HasEdge(nodes[i-1], nodes[i]) {
					t.Fatalf("non-edge on path: %d-%d", nodes[i-1], nodes[i])
				}
			}
		}
	}
}

// TestSparsePathMatchesPathNodes: over seeded random connected graphs,
// hop-count and weighted, every (client, host) pair's sparse path holds
// exactly the nodes of its node sequence, the sequence runs from the
// client to the host, and on hop-count graphs it has Distance+1 nodes.
func TestSparsePathMatchesPathNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		weighted := trial%2 == 1
		g := graph.New(n)
		add := func(u, v int) {
			if u == v || g.HasEdge(u, v) {
				return
			}
			w := 1.0
			if weighted {
				w = float64(1 + rng.Intn(4))
			}
			if err := g.AddWeightedEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		for v := 1; v < n; v++ {
			add(rng.Intn(v), v)
		}
		for m := rng.Intn(n + 1); m > 0; m-- {
			add(rng.Intn(n), rng.Intn(n))
		}
		r, err := NewLazy(g)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n; c++ {
			for h := 0; h < n; h++ {
				nodes := r.PathNodes(c, h)
				if len(nodes) == 0 || nodes[0] != c || nodes[len(nodes)-1] != h {
					t.Fatalf("trial %d: PathNodes(%d, %d) = %v, want a path from %d to %d", trial, c, h, nodes, c, h)
				}
				if !weighted && float64(len(nodes)) != r.Distance(c, h)+1 {
					t.Fatalf("trial %d: PathNodes(%d, %d) = %v, %d nodes at distance %v",
						trial, c, h, nodes, len(nodes), r.Distance(c, h))
				}
				sp, err := r.SparsePath(c, h)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]int(nil), nodes...)
				sort.Ints(want)
				if got := sp.Indices(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: SparsePath(%d, %d) = %v, PathNodes holds %v", trial, c, h, got, want)
				}
			}
		}
	}
}

func TestRouterDeterministic(t *testing.T) {
	topo := topology.MustBuild(topology.Abovenet)
	r1, _ := New(topo.Graph)
	r2, _ := New(topo.Graph)
	for c := 0; c < topo.Graph.NumNodes(); c++ {
		for h := 0; h < topo.Graph.NumNodes(); h++ {
			if !reflect.DeepEqual(r1.PathNodes(c, h), r2.PathNodes(c, h)) {
				t.Fatalf("nondeterministic path for (%d,%d)", c, h)
			}
		}
	}
}

func TestMustHavePanics(t *testing.T) {
	r := lineRouter(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Distance(0, 9)
}

// reviseGraph returns a copy of g without drop random links and with add
// random new ones.
func reviseGraph(t *testing.T, g *graph.Graph, drop, add int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out := graph.New(g.NumNodes())
	for _, e := range edges[drop:] {
		if err := out.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for added := 0; added < add; {
		u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		if u != v && !out.HasEdge(u, v) && !g.HasEdge(u, v) {
			if err := out.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	return out
}

// sameTree reports whether two trees agree in source and, at every node,
// in distance and parent.
func sameTree(a, b *graph.ShortestPathTree, n int) bool {
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

// TestNewRevised routes a chain of revisions of a generated hierarchy,
// each revised from the router before it, and compares every tree each
// revised router memoized with a fresh Dijkstra on its own graph. An
// unchanged graph must carry every tree over as it is, and small
// revisions some; Detach must drop the link to the earlier router, after
// which trees are built by search.
func TestNewRevised(t *testing.T) {
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", 600, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, n := topo.Graph, topo.Graph.NumNodes()
	roots := append(append([]int(nil), topo.CandidateClients[:30]...), 0, 1, 2, 3)
	prev, err := NewLazy(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range roots {
		prev.Tree(v)
	}
	rng := rand.New(rand.NewSource(12))
	total := 0
	for step, diff := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {1, 0}, {0, 3}, {60, 60}} {
		next := reviseGraph(t, prev.Graph(), diff[0], diff[1], rng)
		r, err := NewRevised(next, prev)
		if err != nil {
			t.Fatal(err)
		}
		if r.from == nil {
			t.Fatalf("step %d: revised router not linked to its predecessor", step)
		}
		reused := 0
		for _, v := range roots[:len(roots)-2] {
			if r.Tree(v) == prev.trees[v] {
				reused++
			}
		}
		r.Detach()
		if r.from != nil {
			t.Fatalf("step %d: Detach kept the link", step)
		}
		// Roots the revision did not ask for before Detach are searched.
		for _, v := range roots[len(roots)-2:] {
			if r.Tree(v) == prev.trees[v] {
				t.Fatalf("step %d: root %d taken from the predecessor after Detach", step, v)
			}
		}
		for v, tr := range r.trees {
			if tr != nil && !sameTree(tr, next.Dijkstra(v), n) {
				t.Fatalf("step %d, diff %v: root %d's tree differs from a fresh one", step, diff, v)
			}
		}
		if diff == [2]int{} && reused != len(roots)-2 {
			t.Fatalf("an unchanged graph carried %d of %d trees over as they are", reused, len(roots)-2)
		}
		total += reused
		prev = r
	}
	if total == len(roots)-2 {
		t.Fatal("no revision that changed a link carried a tree over as it is")
	}
	// Other node counts route from scratch.
	if r, err := NewRevised(graph.New(n+1), prev); err != nil || r.from != nil {
		t.Fatalf("revision to another node count: linked %t, %v", r.from != nil, err)
	}
	if r, err := NewRevised(g, nil); err != nil || r.from != nil {
		t.Fatalf("revision of nothing: linked %t, %v", r.from != nil, err)
	}
}

// TestNewRevisedConcurrent queries a revised router from several
// goroutines while its predecessor, still serving, builds trees of its
// own; run it under -race.
func TestNewRevisedConcurrent(t *testing.T) {
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := NewLazy(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	next := reviseGraph(t, topo.Graph, 1, 1, rand.New(rand.NewSource(3)))
	r, err := NewRevised(next, prev)
	if err != nil {
		t.Fatal(err)
	}
	n := next.NumNodes()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for v := w; v < n; v += 4 {
				if w%2 == 0 {
					prev.Tree(v)
				} else {
					r.Tree(v)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	r.Detach()
	for v := 0; v < n; v++ {
		if !sameTree(r.Tree(v), next.Dijkstra(v), n) {
			t.Fatalf("root %d's tree differs from a fresh one", v)
		}
	}
}
