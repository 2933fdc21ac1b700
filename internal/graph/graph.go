// Package graph implements the undirected service-network graph G = (N, L)
// of the paper's Section II-A, together with the traversal primitives the
// routing and placement layers need: shortest-path trees (breadth-first
// search on hop-count graphs, Dijkstra on weighted ones), connected
// components, and degree queries.
//
// Nodes are dense integer IDs in [0, NumNodes) and carry an optional label
// (the decimal ID until one is set). Links do not fail (the paper models
// link failures as logical nodes), so edges are plain unweighted or
// weighted pairs.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// NodeID identifies a node in a Graph. IDs are dense in [0, NumNodes).
type NodeID = int

// Edge is an undirected link between two nodes with a positive weight.
// Weight 1 corresponds to hop-count routing, the paper's QoS distance.
type Edge struct {
	U, V   NodeID
	Weight float64
}

// Graph is an undirected simple graph. The zero value is an empty graph;
// use New to construct one.
type Graph struct {
	// labels holds the labels SetLabel set; a node without one reads as
	// its decimal ID. Nil until the first SetLabel, so the graphs the
	// serving path builds format no label at all.
	labels map[NodeID]string
	adj    [][]neighbor
	edges  []Edge
	// weighted records whether any edge weighs other than 1, which decides
	// how Dijkstra builds trees. AddWeightedEdge is the only place edges
	// enter a graph, so it alone keeps the flag.
	weighted bool
}

type neighbor struct {
	to     NodeID
	weight float64
}

// Errors returned by graph construction and validation.
var (
	ErrNodeRange     = errors.New("graph: node id out of range")
	ErrSelfLoop      = errors.New("graph: self loops not allowed")
	ErrParallelEdge  = errors.New("graph: parallel edge")
	ErrBadWeight     = errors.New("graph: edge weight must be positive")
	ErrEmptyGraph    = errors.New("graph: graph has no nodes")
	ErrDisconnected  = errors.New("graph: graph is not connected")
	ErrDuplicateName = errors.New("graph: duplicate node label")
)

// New returns a graph with n isolated nodes labeled "0".."n-1".
func New(n int) *Graph {
	return &Graph{adj: make([][]neighbor, n)}
}

// NumNodes returns |N|.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns |L|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Label returns the label of node v: the one SetLabel set, even an empty
// one, or else v's decimal ID.
func (g *Graph) Label(v NodeID) string {
	g.mustHave(v)
	if l, ok := g.labels[v]; ok {
		return l
	}
	return strconv.Itoa(v)
}

// SetLabel sets the label of node v.
func (g *Graph) SetLabel(v NodeID, label string) {
	g.mustHave(v)
	if g.labels == nil {
		g.labels = make(map[NodeID]string)
	}
	g.labels[v] = label
}

// AddEdge inserts an undirected edge {u, v} with weight 1.
func (g *Graph) AddEdge(u, v NodeID) error {
	return g.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge inserts an undirected edge {u, v} with the given weight.
// Self loops, parallel edges, and non-positive weights are rejected.
func (g *Graph) AddWeightedEdge(u, v NodeID, weight float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: (%d, %d) with %d nodes", ErrNodeRange, u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if !(weight > 0) || math.IsInf(weight, 1) {
		// The negated comparison also rejects NaN.
		return fmt.Errorf("%w: %g", ErrBadWeight, weight)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d, %d)", ErrParallelEdge, u, v)
	}
	g.adj[u] = append(g.adj[u], neighbor{to: v, weight: weight})
	g.adj[v] = append(g.adj[v], neighbor{to: u, weight: weight})
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: weight})
	if weight != 1 {
		g.weighted = true
	}
	return nil
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, nb := range g.adj[u] {
		if nb.to == v {
			return true
		}
	}
	return false
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	g.mustHave(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending ID order. The returned
// slice is freshly allocated.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	g.mustHave(v)
	out := make([]NodeID, 0, len(g.adj[v]))
	for _, nb := range g.adj[v] {
		out = append(out, nb.to)
	}
	sort.Ints(out)
	return out
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// DanglingNodes returns the nodes with degree exactly one, in ascending
// order. The paper uses these as candidate client locations (Section VI-A).
func (g *Graph) DanglingNodes() []NodeID {
	var out []NodeID
	for v := range g.adj {
		if len(g.adj[v]) == 1 {
			out = append(out, v)
		}
	}
	return out
}

// ShortestPathTree holds the result of a single-source shortest path
// computation with deterministic lexicographic tie-breaking: among
// equal-length shortest paths, the one whose predecessor has the smallest
// node ID is chosen. Deterministic routing makes every experiment in this
// repository reproducible.
//
// A tree is read-only once built, and its layout follows the graph's:
// int32 parents always, and int32 hop counts on a hop-count graph (8
// bytes per node) or float64 distances on a weighted one (12 bytes per
// node). Routers keep one tree per queried root for as long as the
// network lives, so these bytes are most of a routed network's memory.
// The int32 parents bound a routed graph to 2^31 − 1 nodes.
type ShortestPathTree struct {
	// Source is the root of the tree.
	Source NodeID
	parent []int32   // predecessor on the chosen path, -1 at the source and when unreachable
	hops   []int32   // hop-count graphs: hops from Source, -1 when unreachable; else nil
	dist   []float64 // weighted graphs: distance from Source, -1 when unreachable; else nil
}

// Dist returns the distance from the tree's source to v, or -1 when v is
// unreachable. On a hop-count graph it is the exact hop count.
func (t *ShortestPathTree) Dist(v NodeID) float64 {
	if t.hops != nil {
		return float64(t.hops[v])
	}
	return t.dist[v]
}

// Parent returns v's predecessor on the chosen path from the source, or
// -1 at the source itself and when v is unreachable.
func (t *ShortestPathTree) Parent(v NodeID) NodeID { return NodeID(t.parent[v]) }

// searches counts the trees Dijkstra has built; see Searches.
var searches atomic.Int64

// Searches returns how many shortest-path trees Dijkstra has built in this
// process, by breadth-first or heap search; Reroute adds to it only when
// it falls back to a search. It is a read-only count for the tests and
// benchmarks that measure how much routing a network revision saves: the
// difference between two readings counts every search the process ran in
// between, so it is exact only while nothing else routes.
func Searches() int64 { return searches.Load() }

// Dijkstra computes a deterministic shortest path tree from src using edge
// weights. When every edge weighs 1 (hop-count routing, the paper's QoS
// distance) it runs a breadth-first search instead of the binary-heap
// Dijkstra: the tree is the same, stored as int32 hop counts, and the
// search needs no priority queue. A single edge of any other weight sends
// the whole graph down the heap path.
func (g *Graph) Dijkstra(src NodeID) *ShortestPathTree {
	g.mustHave(src)
	searches.Add(1)
	if g.weighted {
		return g.dijkstraHeap(src)
	}
	n := len(g.adj)
	t := &ShortestPathTree{
		Source: src,
		parent: make([]int32, n),
		hops:   make([]int32, n),
	}
	for i := range t.hops {
		t.hops[i] = -1
		t.parent[i] = -1
	}
	t.hops[src] = 0
	queue := make([]int32, 1, n)
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := t.hops[u] + 1
		for _, nb := range g.adj[u] {
			v := nb.to
			switch {
			case t.hops[v] < 0:
				t.hops[v] = d
				t.parent[v] = u
				queue = append(queue, int32(v))
			case t.hops[v] == d && t.parent[v] > u:
				// The heap path's tie-break: every node one hop nearer
				// relaxes v, and the smallest of them stays its parent.
				t.parent[v] = u
			}
		}
	}
	return t
}

// dijkstraHeap is Dijkstra over arbitrary positive weights with a binary
// heap keyed on (distance, node). It is the only path for weighted
// graphs, and the reference the breadth-first path is tested against.
func (g *Graph) dijkstraHeap(src NodeID) *ShortestPathTree {
	n := len(g.adj)
	const inf = 1e18
	t := &ShortestPathTree{
		Source: src,
		parent: make([]int32, n),
		dist:   make([]float64, n),
	}
	for i := range t.dist {
		t.dist[i] = inf
		t.parent[i] = -1
	}
	t.dist[src] = 0

	h := &nodeHeap{}
	h.push(heapItem{dist: 0, node: src})
	done := make([]bool, n)
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, nb := range g.adj[u] {
			v := nb.to
			nd := t.dist[u] + nb.weight
			switch {
			case nd < t.dist[v]:
				t.dist[v] = nd
				t.parent[v] = int32(u)
				h.push(heapItem{dist: nd, node: v})
			case nd == t.dist[v] && int(t.parent[v]) > u:
				// Lexicographic tie-break: prefer the smaller predecessor.
				t.parent[v] = int32(u)
			}
		}
	}
	for i := range t.dist {
		if t.dist[i] >= inf {
			t.dist[i] = -1
		}
	}
	return t
}

// PathTo reconstructs the node sequence from the tree source to dst,
// inclusive of both endpoints, in one allocation of exactly its length.
// It returns nil if dst is unreachable.
func (t *ShortestPathTree) PathTo(dst NodeID) []NodeID {
	if dst < 0 || dst >= len(t.parent) || t.Dist(dst) < 0 {
		return nil
	}
	n := 1
	for v := dst; v != t.Source; n++ {
		if v = t.Parent(v); v < 0 {
			return nil
		}
	}
	path := make([]NodeID, n)
	for i, v := n-1, dst; i >= 0; i, v = i-1, t.Parent(v) {
		path[i] = v
	}
	return path
}

// Components returns the connected components as slices of node IDs, each
// sorted ascending, ordered by their smallest member.
func (g *Graph) Components() [][]NodeID {
	n := len(g.adj)
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, nb := range g.adj[u] {
				if !seen[nb.to] {
					seen[nb.to] = true
					stack = append(stack, nb.to)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Connected reports whether the graph is connected (vacuously false when
// empty).
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return false
	}
	return len(g.Components()) == 1
}

// Validate checks structural invariants: non-empty and connected. Placement
// instances require connectivity so every client can reach every candidate
// host.
func (g *Graph) Validate() error {
	if g.NumNodes() == 0 {
		return ErrEmptyGraph
	}
	if !g.Connected() {
		return fmt.Errorf("%w: %d components", ErrDisconnected, len(g.Components()))
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.NumNodes())
	for v, l := range g.labels {
		c.SetLabel(v, l)
	}
	for _, e := range g.edges {
		// Errors are impossible: the source graph already holds the invariants.
		if err := c.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
			panic(fmt.Sprintf("graph: clone: %v", err))
		}
	}
	return c
}

func (g *Graph) mustHave(v NodeID) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", v, len(g.adj)))
	}
}

// heapItem and nodeHeap implement a minimal binary min-heap keyed on
// (dist, node) so that Dijkstra pops nodes deterministically.
type heapItem struct {
	dist float64
	node NodeID
}

type nodeHeap struct {
	items []heapItem
}

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) less(i, j int) bool {
	if h.items[i].dist != h.items[j].dist {
		return h.items[i].dist < h.items[j].dist
	}
	return h.items[i].node < h.items[j].node
}

func (h *nodeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *nodeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
