// Package routing computes the measurement paths of the paper's Section
// II-A: for every (client, host) pair, the set of nodes p(c, h) traversed
// by a service request under the network's routing protocol, endpoints
// included. The paper assumes one fixed path per pair ("uncontrollable"
// paths in the terminology of [5]); we realize that with deterministic
// shortest-path routing (hop count, lexicographic tie-break), the standard
// stand-in when the operator's routing tables are unavailable.
package routing

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Router serves shortest-path measurement paths and distances over a
// graph. New precomputes all-pairs trees up front (one shortest-path
// tree per node, the Section III-A complexity budget — fine up to a few
// thousand nodes); NewLazy computes each root's tree on first use
// instead, so memory and CPU scale with the number of distinct roots
// actually queried rather than N²: the candidate hosts placement reads
// paths from, plus the clients the QoS profile folds trees from on a
// weighted graph (a hop-count graph's profile routes no tree). Both
// variants produce identical paths and distances and are safe for
// concurrent use. Each tree is a graph.Dijkstra: a breadth-first search
// on hop-count graphs, a binary-heap Dijkstra on weighted ones. A lazy
// router made by NewRevised for a revised network carries each tree over
// from the router it revises where graph.Reroute proves it the same.
type Router struct {
	g     *graph.Graph
	trees []*graph.ShortestPathTree

	// lazy mode: trees entries are filled on demand under mu. Trees are
	// immutable once published, so readers that already hold a pointer
	// never need the lock again.
	lazy bool
	mu   sync.Mutex
	// from, until Detach, is the revision this router's graph came from;
	// see NewRevised. Guarded by mu.
	from *revision
}

// revision is an earlier router plus the edges its graph lost and gained
// on the way to the revised router's graph.
type revision struct {
	prev           *Router
	removed, added []graph.Edge
}

// New builds a Router for g with every shortest-path tree precomputed.
// The graph must be non-empty; for placement it should also be connected
// (see graph.Validate), but New does not insist so that tests can
// exercise unreachable pairs.
func New(g *graph.Graph) (*Router, error) {
	r, err := NewLazy(g)
	if err != nil {
		return nil, err
	}
	r.lazy = false
	for v := 0; v < g.NumNodes(); v++ {
		r.trees[v] = g.Dijkstra(v)
	}
	return r, nil
}

// NewLazy builds a Router that computes each node's shortest-path tree
// on first use. Queries return exactly what the eager Router returns;
// only the construction cost moves. Use it for large generated
// topologies where all-pairs precomputation (O(N) trees, O(N²)
// distance memory) is the bottleneck and only a small subset of nodes
// ever roots a query: on a hop-count graph, placement roots queries at
// its candidate hosts only.
func NewLazy(g *graph.Graph) (*Router, error) {
	if g.NumNodes() == 0 {
		return nil, graph.ErrEmptyGraph
	}
	return &Router{
		g:     g,
		trees: make([]*graph.ShortestPathTree, g.NumNodes()),
		lazy:  true,
	}, nil
}

// NewRevised is NewLazy for g, a revision of prev's graph, that takes
// each tree it is asked for from prev while prev holds that root's tree:
// graph.Reroute carries the tree across the edges the revision removed
// and added, as is, with patched parents, or by search when a distance
// may move. Trees prev never built are built by search, and prev is not
// asked to build any. The link to prev lasts until Detach, so a revision
// keeps its predecessor's trees alive only while it is being routed.
// With a nil prev, or one over a different node count, it is NewLazy.
func NewRevised(g *graph.Graph, prev *Router) (*Router, error) {
	r, err := NewLazy(g)
	if err != nil || prev == nil || prev.NumNodes() != g.NumNodes() {
		return r, err
	}
	removed, added := g.Diff(prev.g)
	r.from = &revision{prev: prev, removed: removed, added: added}
	return r, nil
}

// Detach drops the link NewRevised made to the earlier router: trees not
// yet built are then built by search.
func (r *Router) Detach() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.from = nil
}

// held returns v's tree if r has already built it, without building it.
func (r *Router) held(v graph.NodeID) *graph.ShortestPathTree {
	if !r.lazy {
		return r.trees[v]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trees[v]
}

// Lazy reports whether the router computes trees on demand.
func (r *Router) Lazy() bool { return r.lazy }

// tree returns v's shortest-path tree, computing and memoizing it in
// lazy mode, by rerouting the earlier router's tree while NewRevised's
// link lasts. The tree is built under the mutex: concurrent first
// touches of the same root would otherwise duplicate the work, and the
// placement build path is effectively single-threaded per root anyway.
func (r *Router) tree(v graph.NodeID) *graph.ShortestPathTree {
	if !r.lazy {
		return r.trees[v]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.trees[v]; t != nil {
		return t
	}
	var t *graph.ShortestPathTree
	if old := r.revised(v); old != nil {
		t = r.g.Reroute(old, r.from.removed, r.from.added)
	} else {
		t = r.g.Dijkstra(v)
	}
	r.trees[v] = t
	return t
}

// revised returns the earlier router's tree for v while r is linked to
// one that holds it, else nil. Called with r.mu held; the lock order is
// always from a revision to its predecessor.
func (r *Router) revised(v graph.NodeID) *graph.ShortestPathTree {
	if r.from == nil {
		return nil
	}
	return r.from.prev.held(v)
}

// Graph returns the routed graph.
func (r *Router) Graph() *graph.Graph { return r.g }

// NumNodes returns the number of nodes in the routed graph.
func (r *Router) NumNodes() int { return r.g.NumNodes() }

// Distance returns the routing distance from u to v, or -1 if unreachable.
func (r *Router) Distance(u, v graph.NodeID) float64 {
	r.mustHave(u)
	r.mustHave(v)
	return r.tree(u).Dist(v)
}

// Tree returns the shortest-path tree rooted at v: its Dist(u) is
// d(v, u), or -1 if unreachable. It is the router's own memoized tree,
// read-only like every graph.ShortestPathTree. One call costs one tree
// in lazy mode and nothing afterwards. The QoS profile of a weighted
// graph folds one such tree per client; a hop-count graph's profile
// comes from graph.MaxHops and asks for none.
func (r *Router) Tree(v graph.NodeID) *graph.ShortestPathTree {
	r.mustHave(v)
	return r.tree(v)
}

// PathNodes returns the node sequence from c to h inclusive, or nil if h is
// unreachable from c. The path is taken from h's shortest-path tree so that
// p(c, h) is the route a request from client c to host h follows under
// destination-rooted routing; because tie-breaking is deterministic, the
// same (c, h) always yields the same path.
func (r *Router) PathNodes(c, h graph.NodeID) []graph.NodeID {
	r.mustHave(c)
	r.mustHave(h)
	nodes := r.tree(h).PathTo(c)
	// PathTo walks from the tree root h toward c; present it client-first.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	return nodes
}

// Path returns the measurement path p(c, h) as a node set over the graph's
// universe (the representation Section II-A uses: a path is the set of
// traversed nodes, endpoints included). It returns an error if h is
// unreachable from c.
func (r *Router) Path(c, h graph.NodeID) (*bitset.Set, error) {
	nodes := r.PathNodes(c, h)
	if nodes == nil {
		return nil, fmt.Errorf("routing: no path between %d and %d", c, h)
	}
	s := bitset.New(r.g.NumNodes())
	for _, v := range nodes {
		s.Add(v)
	}
	return s, nil
}

// SparsePath returns p(c, h) in the sparse node-set representation,
// whose memory is proportional to the hop count rather than the graph
// size. It returns an error if h is unreachable from c.
func (r *Router) SparsePath(c, h graph.NodeID) (*bitset.Sparse, error) {
	nodes := r.PathNodes(c, h)
	if nodes == nil {
		return nil, fmt.Errorf("routing: no path between %d and %d", c, h)
	}
	return bitset.SparseFromNodes(r.g.NumNodes(), nodes), nil
}

// PathSet returns the measurement paths P(C, h) = {p(c, h) : c ∈ C}
// between every client in C and host h (Section II-C). Duplicate client
// entries produce duplicate paths and are rejected; unreachable pairs are
// an error.
func (r *Router) PathSet(clients []graph.NodeID, h graph.NodeID) ([]*bitset.Set, error) {
	seen := make(map[graph.NodeID]bool, len(clients))
	out := make([]*bitset.Set, 0, len(clients))
	for _, c := range clients {
		if seen[c] {
			return nil, fmt.Errorf("routing: duplicate client %d", c)
		}
		seen[c] = true
		p, err := r.Path(c, h)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SparsePathSet is PathSet in the sparse representation — the form the
// placement instance stores so path memory scales with total hop count,
// not clients × N.
func (r *Router) SparsePathSet(clients []graph.NodeID, h graph.NodeID) ([]*bitset.Sparse, error) {
	seen := make(map[graph.NodeID]bool, len(clients))
	out := make([]*bitset.Sparse, 0, len(clients))
	for _, c := range clients {
		if seen[c] {
			return nil, fmt.Errorf("routing: duplicate client %d", c)
		}
		seen[c] = true
		p, err := r.SparsePath(c, h)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (r *Router) mustHave(v graph.NodeID) {
	if v < 0 || v >= r.g.NumNodes() {
		panic(fmt.Sprintf("routing: node %d out of range [0, %d)", v, r.g.NumNodes()))
	}
}
